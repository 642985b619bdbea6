#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/dht/dht.hpp"
#include "common.hpp"
#include "gex/agg.hpp"
#include "gex/am.hpp"
#include "gex/rma_am.hpp"
#include "gex/runtime.hpp"
#include "gex/transport.hpp"
#include "gex/xfer.hpp"
#include "opstream.hpp"
#include "trace.hpp"
#include "upcxx/upcxx.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 2;

// ------------------------------------------------------------ measurement

// One closed-loop client thread's record of one phase.
struct Client {
  int rank = 0;
  std::vector<std::uint32_t> write_ns, read_ns;  // verified ops only
  std::uint64_t ops = 0;  // verified
  std::uint64_t failed = 0;
  std::uint64_t payload = 0;  // bytes of verified ops
  std::uint64_t begin_ns = 0, end_ns = 0;
  std::uint64_t progress_calls = 0, progress_busy = 0;

  // kUntimed ops count toward ops and payload but not toward a latency
  // median (dht erases; see DhtRank::issue).
  enum Class { kWrite, kRead, kUntimed };

  void record(Class cls, std::uint64_t ns, bool ok, std::uint64_t bytes) {
    if (!ok) {
      ++failed;
      return;
    }
    const auto v =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
    if (cls == kWrite) write_ns.push_back(v);
    if (cls == kRead) read_ns.push_back(v);
    ++ops;
    payload += bytes;
  }

  // One explicit upcxx::progress() call; true when the library did work.
  bool progress() {
    Span s(SpanName::kProgress);
    const std::uint64_t w = upcxx::detail::progress_work_counter();
    upcxx::progress();
    ++progress_calls;
    const bool busy = upcxx::detail::progress_work_counter() != w;
    progress_busy += busy;
    return busy;
  }
};

// Public counters of every layer, read on the thread holding the rank.
struct LayerSnap {
  upcxx::experimental::op_stats up{};
  gex::Aggregator::Stats agg{};
  gex::AmEngine::Stats am{};
  std::uint64_t writev_batches = 0;
  gex::XferEngine::Stats xfer{};
  gex::RmaAmProtocol::Stats rma{};
  std::uint64_t seg_used = 0;
};

LayerSnap take_snap() {
  LayerSnap s;
  s.up = upcxx::experimental::stats();
  gex::Rank* r = gex::self();
  if (r->agg) s.agg = r->agg->stats();
  s.am = r->am->stats();
  s.writev_batches = r->am->transport().tx_writev_batches();
  if (r->xfer) s.xfer = r->xfer->stats();
  if (r->rma_am) s.rma = r->rma_am->stats();
  const gex::SharedHeap& h = r->arena->segment_heap(r->me);
  s.seg_used = h.bytes_total() - h.bytes_free();
  return s;
}

struct PhaseData {
  double seconds = 0;
  bool warmup = false;
  bool traced = false;
  std::mutex mu;  // guards clients
  std::vector<std::unique_ptr<Client>> clients;
  LayerSnap before[kRanks], after[kRanks];

  void add(std::unique_ptr<Client> c) {
    std::lock_guard<std::mutex> g(mu);
    clients.push_back(std::move(c));
  }
};

// Everything one launch shares across its rank threads.
struct Ctx {
  const RunParams* p = nullptr;
  std::vector<int> cpus;  // allowed_cpus() of the launching thread
  int rank_slot[kRanks] = {0, 1};  // CPU slot of each rank's master thread
  std::unique_ptr<Pattern> pat;
  // Every phase of the run; warm-ups are verified and counted as
  // attempted but measure nothing.
  std::vector<std::unique_ptr<PhaseData>> phases;
  std::vector<PhaseData*> launch_phases;  // what the current launch runs
  // Index of the current launch's first slice; mixed into the lane seeds
  // so launches of one run replay different (but seeded) op streams.
  std::uint64_t launch = 0;
  std::uint64_t lane_seed() const { return p->seed ^ mix64(launch); }
  std::atomic<std::uint64_t> setup_end_ns{0};
  std::atomic<std::uint64_t> extra_ops{0}, extra_failed{0};
  std::int64_t leaked[kRanks] = {0, 0};  // summed over launches
  TraceSet traces;
  std::atomic<std::uint64_t> reads_checked{0};

  // Self-test hook: should this read's expected value be corrupted?
  bool corrupt_next() {
    return p->corrupt_every &&
           (reads_checked.fetch_add(1, std::memory_order_relaxed) + 1) %
                   p->corrupt_every ==
               0;
  }
};

// The CPUs the process may use, in order (read once, before any thread
// narrows its own mask).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

// Binds the calling thread to the slot-th allowed CPU (wrapping), so each
// busy thread of a workload owns one CPU and runs do not differ by where
// the scheduler happened to put the spinning threads. Threads the caller
// creates afterwards inherit the binding.
void pin_to_slot(const std::vector<int>& cpus, int slot) {
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

std::uint64_t ns_from_s(double s) { return static_cast<std::uint64_t>(s * 1e9); }

Tracer* phase_tracer(Ctx& c, const PhaseData& pd, int rank, int thread) {
  return pd.traced ? c.traces.make(rank, thread) : nullptr;
}

std::uint64_t new_op() {
  Tracer* t = tracer();
  return t ? t->new_op() : 0;
}

// ----------------------------------------------------------- client loops

// Closed loop, one op outstanding: issue, then wait on the future.
template <typename Issue>
void blocking_loop(std::uint64_t deadline, Issue&& issue) {
  while (now_ns() < deadline) {
    const std::uint64_t op = new_op();
    Span root(SpanName::kOp, OpKind::kNone, op);
    upcxx::future<> f = issue(op);
    Span w(SpanName::kWait, OpKind::kNone, op);
    f.wait();
  }
}

// Closed loop per lane, `lanes` ops outstanding: progress until at least
// one completes, re-issue on every completed lane until the deadline, then
// drain.
template <typename Issue>
void windowed_loop(Client& c, std::uint64_t deadline, std::size_t lanes,
                   Issue&& issue) {
  std::vector<upcxx::future<>> fl(lanes);
  auto start = [&](std::size_t i) {
    const std::uint64_t op = new_op();
    Span root(SpanName::kOp, OpKind::kNone, op);
    fl[i] = issue(i, op);
  };
  for (std::size_t i = 0; i < lanes; ++i) start(i);
  std::size_t live = lanes;
  while (live) {
    {
      Span w(SpanName::kWait);
      for (;;) {
        const bool busy = c.progress();
        if (std::any_of(fl.begin(), fl.end(),
                        [](const auto& f) { return f.is_ready(); }))
          break;
        if (upcxx::detail::job_failed()) upcxx::detail::throw_rank_failed();
        if (!busy) std::this_thread::yield();
      }
    }
    const bool more = now_ns() < deadline;
    for (std::size_t i = 0; i < lanes; ++i) {
      if (!fl[i].is_ready()) continue;
      if (more) {
        start(i);
      } else {
        fl[i] = upcxx::future<>();
        --live;
      }
    }
  }
}

// Both ranks run `loop` as their own client for the phase.
template <typename Loop>
void symmetric_phase(Ctx& cx, PhaseData& pd, Loop&& loop) {
  const int me = upcxx::rank_me();
  upcxx::barrier();
  pd.before[me] = take_snap();
  auto c = std::make_unique<Client>();
  c->rank = me;
  set_tracer(phase_tracer(cx, pd, me, 0));
  c->begin_ns = now_ns();
  loop(*c, c->begin_ns + ns_from_s(pd.seconds));
  c->end_ns = now_ns();
  set_tracer(nullptr);
  upcxx::barrier();
  pd.after[me] = take_snap();
  pd.add(std::move(c));
}

// --------------------------------------------------------------------- dht

// dht / dht_socket: dht::RpcRmaMap driven by `window` closed-loop lanes
// per rank over bounded live sets.
class DhtRank {
 public:
  DhtRank(Ctx& cx, std::size_t window, std::size_t live_cap)
      : cx_(cx), pat_(*cx.pat) {
    for (std::size_t i = 0; i < window; ++i)
      lanes_.emplace_back(cx.lane_seed(), upcxx::rank_me(),
                          static_cast<int>(i), live_cap);
    seg_used0_ = take_snap().seg_used;
  }

  void phase(PhaseData& pd) {
    symmetric_phase(cx_, pd, [&](Client& c, std::uint64_t deadline) {
      if (lanes_.size() == 1)
        blocking_loop(deadline,
                      [&](std::uint64_t op) { return issue(lanes_[0], c, op); });
      else
        windowed_loop(c, deadline, lanes_.size(),
                      [&](std::size_t i, std::uint64_t op) {
                        return issue(lanes_[i], c, op);
                      });
    });
  }

  // Reads back every live key, erases it, and measures the segment bytes
  // still allocated once nothing is live (the overwrite leak).
  void finish() {
    std::uint64_t ops = 0, failed = 0;
    for (const DhtLane& lane : lanes_) {
      for (const DhtStep& e : lane.live()) {
        const std::string key = dht_key(e.key);
        auto got = map_.find(key).wait();
        failed += !(got && dht_value_ok(*got, e, pat_));
        failed += !map_.erase(key).wait();
        ops += 2;
      }
    }
    cx_.extra_ops += ops;
    cx_.extra_failed += failed;
    upcxx::barrier();
    cx_.leaked[upcxx::rank_me()] +=
        static_cast<std::int64_t>(take_snap().seg_used) -
        static_cast<std::int64_t>(seg_used0_);
  }

 private:
  upcxx::future<> issue(DhtLane& lane, Client& c, std::uint64_t op) {
    const DhtStep s = lane.next();
    const std::string key = dht_key(s.key);
    switch (s.op) {
      case DhtOp::kInsert:
      case DhtOp::kUpdate: {
        const std::string v = dht_value(s, pat_);
        const std::uint64_t t0 = now_ns();
        upcxx::future<> f;
        {
          Span i(SpanName::kInitiate, OpKind::kRpc, op);
          f = map_.insert(key, v);
        }
        return f.then([&c, t0, len = s.len, op] {
          const std::uint64_t t1 = now_ns();
          Span d(SpanName::kComplete, OpKind::kNone, op);
          c.record(Client::kWrite, t1 - t0, true, len);
        });
      }
      case DhtOp::kFind: {
        const std::uint64_t t0 = now_ns();
        upcxx::future<std::optional<std::string>> f;
        {
          Span i(SpanName::kInitiate, OpKind::kRpc, op);
          f = map_.find(key);
        }
        return f.then(
            [this, &c, t0, s, op](const std::optional<std::string>& got) {
              const std::uint64_t t1 = now_ns();
              Span d(SpanName::kComplete, OpKind::kNone, op);
              DhtStep want = s;
              if (cx_.corrupt_next()) want.version ^= 0x80000000u;
              c.record(Client::kRead, t1 - t0, got && dht_value_ok(*got, want, pat_),
                       s.len);
            });
      }
      case DhtOp::kErase:
      default: {
        // A bounded live set erases as often as it inserts, so erases
        // (one round trip) and inserts (two) would split the writes into
        // two equal clusters whose median jumps between them from run to
        // run. Erases are verified and counted, but not timed as writes.
        const std::uint64_t t0 = now_ns();
        upcxx::future<bool> f;
        {
          Span i(SpanName::kInitiate, OpKind::kRpc, op);
          f = map_.erase(key);
        }
        return f.then([&c, t0, op](bool removed) {
          const std::uint64_t t1 = now_ns();
          Span d(SpanName::kComplete, OpKind::kNone, op);
          c.record(Client::kUntimed, t1 - t0, removed, 0);
        });
      }
    }
  }

  Ctx& cx_;
  const Pattern& pat_;
  dht::RpcRmaMap map_;
  std::vector<DhtLane> lanes_;
  std::uint64_t seg_used0_ = 0;
};

// ----------------------------------------------------------------- bulk_am

// bulk_am: 8 lanes per rank, each alternating rput/rget of its own 1 MiB
// slot in the peer's segment; every get is checked against the put before.
class BulkRank {
 public:
  static constexpr std::size_t kLanes = 8;

  explicit BulkRank(Ctx& cx)
      : cx_(cx),
        pat_(*cx.pat),
        mine_(upcxx::allocate<char>(kLanes * kBulkMax, 64)),
        dir_(mine_),
        bufs_(kLanes * kBulkMax) {
    if (mine_.is_null()) throw std::runtime_error("bulk_am: segment exhausted");
    peer_ = dir_.fetch(1 - upcxx::rank_me()).wait();
    for (std::size_t i = 0; i < kLanes; ++i)
      lanes_.emplace_back(cx.lane_seed(), upcxx::rank_me(), static_cast<int>(i));
  }

  ~BulkRank() { upcxx::deallocate(mine_); }

  void phase(PhaseData& pd) {
    symmetric_phase(cx_, pd, [&](Client& c, std::uint64_t deadline) {
      windowed_loop(c, deadline, kLanes, [&](std::size_t i, std::uint64_t op) {
        return issue(i, c, op);
      });
    });
  }

  void finish() {}

 private:
  upcxx::future<> issue(std::size_t lane, Client& c, std::uint64_t op) {
    const BulkStep s = lanes_[lane].next();
    const upcxx::global_ptr<char> slot =
        peer_ + static_cast<std::ptrdiff_t>(lane * kBulkMax);
    const std::uint64_t t0 = now_ns();
    if (s.is_put) {
      upcxx::future<> f;
      {
        Span i(SpanName::kInitiate, OpKind::kRput, op);
        f = upcxx::rput(pat_.at(s.off), slot, s.len);
      }
      return f.then([&c, t0, s, op] {
        const std::uint64_t t1 = now_ns();
        Span d(SpanName::kComplete, OpKind::kNone, op);
        c.record(Client::kWrite, t1 - t0, true, s.len);
      });
    }
    char* dst = bufs_.data() + lane * kBulkMax;
    upcxx::future<> f;
    {
      Span i(SpanName::kInitiate, OpKind::kRget, op);
      f = upcxx::rget(slot, dst, s.len);
    }
    return f.then([this, &c, t0, s, dst, op] {
      const std::uint64_t t1 = now_ns();
      Span d(SpanName::kComplete, OpKind::kNone, op);
      const std::size_t want = s.off + (cx_.corrupt_next() ? 64 : 0);
      c.record(Client::kRead, t1 - t0, std::memcmp(dst, pat_.at(want), s.len) == 0,
               s.len);
    });
  }

  Ctx& cx_;
  const Pattern& pat_;
  upcxx::global_ptr<char> mine_;
  upcxx::dist_object<upcxx::global_ptr<char>> dir_;
  upcxx::global_ptr<char> peer_;
  std::vector<char> bufs_;
  std::vector<BulkLane> lanes_;
};

// ------------------------------------------------------------------ inject

// inject: rank 0 hands its master persona to a default-width progress_pool
// and runs kThreads injection_scope client threads; rank 1 serves from
// its master thread.
class InjectRank {
 public:
  static constexpr int kThreads = 2;

  explicit InjectRank(Ctx& cx)
      : cx_(cx),
        pat_(*cx.pat),
        ad_({upcxx::atomic_op::fetch_add}),
        done_(0),
        dir_(make_dir()) {
    for (std::uint32_t i = 0; i < kInjectOffsets; ++i) {
      sum_small_[i] = checksum(pat_.at(i * 64), kInjectSmall);
      sum_large_[i] = checksum(pat_.at(i * 64), kInjectLarge);
    }
    if (upcxx::rank_me() == 0) {
      peer_ = dir_.fetch(1).wait();
      for (int t = 0; t < kThreads; ++t) {
        threads_[t].lane.emplace(cx.lane_seed(), t);
        upcxx::rput(pat_.at(0), slot(t), kInjectLarge).wait();
      }
    }
  }

  ~InjectRank() {
    if (upcxx::rank_me() == 1) {
      upcxx::deallocate(dir_->slots);
      upcxx::deallocate(dir_->ctrs);
    }
  }

  void phase(PhaseData& pd) {
    const int me = upcxx::rank_me();
    upcxx::barrier();
    pd.before[me] = take_snap();
    if (me == 0) {
      std::unique_ptr<Client> cs[kThreads];
      std::atomic<bool> thread_failed{false};
      upcxx::injector inj;
      {
        upcxx::progress_pool pool;
        const std::uint64_t deadline = now_ns() + ns_from_s(pd.seconds);
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
          cs[t] = std::make_unique<Client>();
          ts.emplace_back([&, t] {
            pin_to_slot(cx_.cpus, cx_.rank_slot[0] + 1 + t);
            upcxx::injection_scope scope(inj);
            set_tracer(phase_tracer(cx_, pd, 0, t + 1));
            try {
              client_loop(*cs[t], t, deadline);
            } catch (const std::exception&) {  // e.g. upcxx::rank_failed
              ++cs[t]->failed;
              thread_failed = true;
            }
            set_tracer(nullptr);
          });
        }
        for (auto& th : ts) th.join();
        pool.stop();
      }
      if (thread_failed) throw std::runtime_error("inject: a client thread failed");
      pd.after[0] = take_snap();
      upcxx::rpc_ff(1, [](upcxx::dist_object<int>& d) { ++*d; }, done_);
      for (auto& c : cs) pd.add(std::move(c));
    } else {
      auto c = std::make_unique<Client>();
      c->rank = 1;
      set_tracer(phase_tracer(cx_, pd, 1, 0));
      const int target = *done_ + 1;
      c->begin_ns = now_ns();
      while (*done_ < target) {
        if (!c->progress()) std::this_thread::yield();
        if (upcxx::detail::job_failed()) upcxx::detail::throw_rank_failed();
      }
      c->end_ns = now_ns();
      set_tracer(nullptr);
      pd.after[1] = take_snap();
      pd.add(std::move(c));
    }
    upcxx::barrier();
  }

  void finish() {}

 private:
  struct Dir {
    upcxx::global_ptr<char> slots;
    upcxx::global_ptr<std::int64_t> ctrs;
  };
  struct ThreadState {
    std::optional<InjectLane> lane;
    std::int64_t count = 0;  // fetch_adds so far = the counter's value
    std::uint32_t last_off = 0;
    std::uint32_t last_len = kInjectLarge;
  };

  static Dir make_dir() {
    Dir d;
    if (upcxx::rank_me() == 1) {
      d.slots = upcxx::allocate<char>(kThreads * kInjectLarge, 64);
      d.ctrs = upcxx::allocate<std::int64_t>(kThreads);
      if (d.slots.is_null() || d.ctrs.is_null())
        throw std::runtime_error("inject: segment exhausted");
      for (int t = 0; t < kThreads; ++t) d.ctrs.local()[t] = 0;
    }
    return d;
  }

  upcxx::global_ptr<char> slot(int t) const {
    return peer_.slots + static_cast<std::ptrdiff_t>(t * kInjectLarge);
  }

  // Runs on an injector thread: no rank context, so no rank_me() here.
  void client_loop(Client& c, int t, std::uint64_t deadline) {
    ThreadState& st = threads_[t];
    const upcxx::global_ptr<char> dst = slot(t);
    const upcxx::global_ptr<std::int64_t> ctr = peer_.ctrs + t;
    c.begin_ns = now_ns();
    while (now_ns() < deadline) {
      const InjectStep s = st.lane->next();
      const std::uint64_t op = new_op();
      Span root(SpanName::kOp, OpKind::kNone, op);
      const std::uint64_t t0 = now_ns();
      switch (s.op) {
        case InjectOp::kRputSmall:
        case InjectOp::kRputLarge: {
          const std::uint32_t len =
              s.op == InjectOp::kRputSmall ? kInjectSmall : kInjectLarge;
          upcxx::future<> f;
          {
            Span i(SpanName::kInitiate, OpKind::kRput, op);
            f = upcxx::rput(pat_.at(s.off), dst, len);
          }
          {
            Span w(SpanName::kWait, OpKind::kNone, op);
            f.wait();
          }
          const std::uint64_t t1 = now_ns();
          Span d(SpanName::kComplete, OpKind::kNone, op);
          c.record(Client::kWrite, t1 - t0, true, len);
          st.last_off = s.off;
          st.last_len = len;
          break;
        }
        case InjectOp::kRpc: {
          upcxx::future<std::uint64_t> f;
          {
            Span i(SpanName::kInitiate, OpKind::kRpc, op);
            f = upcxx::rpc(
                1,
                [](upcxx::global_ptr<char> p, std::uint32_t n) {
                  return checksum(p.local(), n);
                },
                dst, st.last_len);
          }
          std::uint64_t got;
          {
            Span w(SpanName::kWait, OpKind::kNone, op);
            got = f.wait();
          }
          const std::uint64_t t1 = now_ns();
          Span d(SpanName::kComplete, OpKind::kNone, op);
          std::uint64_t want = st.last_len == kInjectSmall
                                   ? sum_small_[st.last_off / 64]
                                   : sum_large_[st.last_off / 64];
          if (cx_.corrupt_next()) want ^= 1;
          c.record(Client::kRead, t1 - t0, got == want, 8);
          break;
        }
        case InjectOp::kFetchAdd: {
          upcxx::future<std::int64_t> f;
          {
            Span i(SpanName::kInitiate, OpKind::kAmo, op);
            f = ad_.fetch_add(ctr, 1);
          }
          std::int64_t got;
          {
            Span w(SpanName::kWait, OpKind::kNone, op);
            got = f.wait();
          }
          const std::uint64_t t1 = now_ns();
          Span d(SpanName::kComplete, OpKind::kNone, op);
          c.record(Client::kRead, t1 - t0, got == st.count, 8);
          ++st.count;
          break;
        }
      }
    }
    c.end_ns = now_ns();
  }

  Ctx& cx_;
  const Pattern& pat_;
  upcxx::atomic_domain<std::int64_t> ad_;
  upcxx::dist_object<int> done_;
  upcxx::dist_object<Dir> dir_;
  Dir peer_;
  ThreadState threads_[kThreads];
  std::uint64_t sum_small_[kInjectOffsets];
  std::uint64_t sum_large_[kInjectOffsets];
};

// -------------------------------------------------------------- workloads

struct Spec {
  WorkloadInfo info;
  double warmup_s;
  std::size_t pattern_bytes;
  gex::Config cfg;
  // Fresh launch per slice (dht*: the leak would otherwise slow every
  // later slice, and the socket transport settles into a different speed
  // per launch), or all slices in one launch (the am wire's staging pools
  // and adaptive window take a while to settle after each launch).
  bool launch_per_slice;
};

gex::Config base_cfg() {
  gex::Config c;
  c.ranks = kRanks;
  c.backend = gex::Backend::kThread;
  c.am_transport = gex::AmTransport::kMmap;
  c.rma_wire = gex::RmaWire::kAuto;
  return c;
}

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s = [] {
    std::vector<Spec> v;
    gex::Config dht = base_cfg();
    // Room for the live set plus the overwrite leak of one launch (about
    // 10 MB in half a second); the mapping is lazy, so only bytes actually
    // written become resident.
    dht.segment_bytes = std::size_t{256} << 20;
    v.push_back({{"dht", {1, 1}}, 0.2, 1 << 20, dht, true});
    gex::Config sock = dht;
    sock.am_transport = gex::AmTransport::kSocket;
    v.push_back({{"dht_socket", {1, 1}}, 0.2, 1 << 20, sock, true});
    gex::Config bulk = base_cfg();
    bulk.rma_wire = gex::RmaWire::kAm;
    bulk.segment_bytes = 32 << 20;
    v.push_back({{"bulk_am", {1, 1}}, 0.5, kBulkPatternBytes, bulk, false});
    gex::Config inj = base_cfg();
    inj.progress_threads = 1;  // the default pool width
    v.push_back({{"inject", {InjectRank::kThreads + 1, 1}}, 0.3,
                 kInjectPatternBytes, inj, false});
    return v;
  }();
  return s;
}

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : specs())
    if (name == s.info.name) return s;
  throw std::invalid_argument("unknown workload " + name);
}

template <typename State>
void rank_body(Ctx& cx, bool setup_only,
               std::unique_ptr<State> (*make)(Ctx&)) {
  pin_to_slot(cx.cpus, cx.rank_slot[upcxx::rank_me()]);
  const std::unique_ptr<State> st = make(cx);
  upcxx::barrier();
  if (upcxx::rank_me() == 0) cx.setup_end_ns = now_ns();
  if (!setup_only) {
    for (PhaseData* pd : cx.launch_phases) st->phase(*pd);
    st->finish();
  }
  upcxx::barrier();
}

void spmd(Ctx& cx, const std::string& name, bool setup_only) {
  if (name == "dht")
    rank_body<DhtRank>(cx, setup_only, [](Ctx& c) {
      return std::make_unique<DhtRank>(c, 1, 1024);
    });
  else if (name == "dht_socket")
    rank_body<DhtRank>(cx, setup_only, [](Ctx& c) {
      return std::make_unique<DhtRank>(c, 16, 64);
    });
  else if (name == "bulk_am")
    rank_body<BulkRank>(cx, setup_only,
                        [](Ctx& c) { return std::make_unique<BulkRank>(c); });
  else
    rank_body<InjectRank>(cx, setup_only, [](Ctx& c) {
      return std::make_unique<InjectRank>(c);
    });
}

// ------------------------------------------------------------- reporting

struct Totals {
  std::uint64_t ops = 0, failed = 0, payload = 0;
  std::uint64_t progress_calls = 0, progress_busy = 0;
  double ops_per_s = 0, bytes_per_s = 0;
  std::vector<std::uint32_t> write_ns, read_ns;
};

using Phases = std::vector<const PhaseData*>;

// Rates are summed over ranks; each rank's rate is its ops over the time
// its clients ran, summed over the given phases.
Totals totals(const Phases& phases) {
  Totals t;
  for (int r = 0; r < kRanks; ++r) {
    std::uint64_t ops = 0, bytes = 0, ns = 0;
    for (const PhaseData* pd : phases) {
      std::uint64_t b = ~0ull, e = 0;
      for (const auto& c : pd->clients) {
        if (c->rank != r) continue;
        ops += c->ops;
        bytes += c->payload;
        t.failed += c->failed;
        t.progress_calls += c->progress_calls;
        t.progress_busy += c->progress_busy;
        t.write_ns.insert(t.write_ns.end(), c->write_ns.begin(), c->write_ns.end());
        t.read_ns.insert(t.read_ns.end(), c->read_ns.begin(), c->read_ns.end());
        if (c->ops) {
          b = std::min(b, c->begin_ns);
          e = std::max(e, c->end_ns);
        }
      }
      if (e > b) ns += e - b;
    }
    t.ops += ops;
    t.payload += bytes;
    if (ns) {
      t.ops_per_s += static_cast<double>(ops) / (static_cast<double>(ns) * 1e-9);
      t.bytes_per_s += static_cast<double>(bytes) / (static_cast<double>(ns) * 1e-9);
    }
  }
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean_ns(const SpanAgg& a, bool self) {
  return ratio(static_cast<double>(self ? a.self_ns : a.dur_ns),
               static_cast<double>(a.n));
}

// Sum over ranks and phases of after - before for one counter.
template <typename Get>
double delta(const Phases& phases, Get get) {
  double d = 0;
  for (const PhaseData* pd : phases)
    for (int r = 0; r < kRanks; ++r)
      d += static_cast<double>(get(pd->after[r])) -
           static_cast<double>(get(pd->before[r]));
  return d;
}

// Rates are the median over slices of each slice's rate, so a slice that
// a stall or a burst of host load slowed does not move them; latency
// medians are over every verified op of the class in all slices.
std::vector<Metric> end_to_end(const Phases& slices, double setup_s) {
  std::vector<double> ops, mb;
  for (const PhaseData* pd : slices) {
    const Totals t = totals({pd});
    ops.push_back(t.ops_per_s);
    mb.push_back(t.bytes_per_s / 1e6);
  }
  Totals all = totals(slices);
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", median(ops), "1/s"},
      {"payload_mb_per_s", median(mb), "MB/s"},
      {"write_p50_us", percentile(all.write_ns, 50) / 1e3, "us"},
      {"read_p50_us", percentile(all.read_ns, 50) / 1e3, "us"},
  };
}

std::vector<Metric> per_layer(Ctx& cx, const Phases& plain,
                              const Phases& traced) {
  const Totals tp = totals(plain);
  const Totals tt = totals(traced);
  const double ops = static_cast<double>(tt.ops);
  const TraceSet& ts = cx.traces;
  auto d = [&](auto get) { return delta(traced, get); };

  const double records =
      d([](const LayerSnap& s) { return s.am.sent_eager; }) +
      d([](const LayerSnap& s) { return s.am.sent_frames; }) +
      d([](const LayerSnap& s) { return s.am.sent_rendezvous; });
  const double requests =
      d([](const LayerSnap& s) {
        return s.rma.puts_sent + s.rma.gets_sent + s.rma.frag_puts_sent +
               s.rma.frag_gets_sent;
      });
  const double puts = d([](const LayerSnap& s) {
    return s.rma.puts_sent + s.rma.frag_puts_sent;
  });
  const double piggy = d([](const LayerSnap& s) { return s.rma.acks_piggybacked; });
  const double standalone = d([](const LayerSnap& s) { return s.rma.ack_cookies_sent; });
  const double staged = d([](const LayerSnap& s) {
    return s.rma.puts_staged + s.rma.replies_staged;
  });
  const double stage_allocs = d([](const LayerSnap& s) {
    return s.rma.stage_allocs + s.rma.reply_stage_allocs;
  });
  const double cap_flush = d([](const LayerSnap& s) { return s.agg.flushes_capacity; });
  const double exp_flush = d([](const LayerSnap& s) { return s.agg.flushes_explicit; });
  double max_inflight = 0;
  for (const PhaseData* pd : traced)
    for (int r = 0; r < kRanks; ++r)
      max_inflight = std::max(
          max_inflight, static_cast<double>(pd->after[r].xfer.max_inflight));
  std::int64_t leaked = 0;
  for (int r = 0; r < kRanks; ++r) leaked += cx.leaked[r];

  auto wp = tp.write_ns;
  auto rp = tp.read_ns;
  const SpanAgg op_spans = ts.sum(SpanName::kOp);
  const SpanAgg done_spans = ts.sum(SpanName::kComplete);

  return {
      {"upcxx.rpc_init_ns", mean_ns(ts.sum(SpanName::kInitiate, OpKind::kRpc), false), "ns"},
      {"upcxx.rput_init_ns", mean_ns(ts.sum(SpanName::kInitiate, OpKind::kRput), false), "ns"},
      {"upcxx.rget_init_ns", mean_ns(ts.sum(SpanName::kInitiate, OpKind::kRget), false), "ns"},
      {"upcxx.wait_ns", mean_ns(ts.sum(SpanName::kWait), false), "ns"},
      {"upcxx.rpcs_sent_per_op", ratio(d([](const LayerSnap& s) { return s.up.rpcs_sent; }), ops), "1/op"},
      {"upcxx.lpcs_run_per_op", ratio(d([](const LayerSnap& s) { return s.up.lpcs_run; }), ops), "1/op"},
      {"upcxx.amos_run", d([](const LayerSnap& s) { return s.up.amos_run; }), "count"},
      {"upcxx.progress_calls_per_op", ratio(static_cast<double>(tt.progress_calls), ops), "1/op"},
      {"upcxx.progress_busy_ratio", ratio(static_cast<double>(tt.progress_busy), static_cast<double>(tt.progress_calls)), "ratio"},
      {"gex.agg.msgs_per_frame", ratio(d([](const LayerSnap& s) { return s.agg.msgs; }), d([](const LayerSnap& s) { return s.agg.frames; })), "msgs/frame"},
      {"gex.agg.capacity_flush_ratio", ratio(cap_flush, cap_flush + exp_flush), "ratio"},
      {"gex.am.frames_per_op", ratio(records, ops), "1/op"},
      {"gex.am.rendezvous_ratio", ratio(d([](const LayerSnap& s) { return s.am.sent_rendezvous; }), records), "ratio"},
      {"gex.am.send_stalls_per_1k_sends", 1e3 * ratio(d([](const LayerSnap& s) { return s.am.send_stalls; }), records), "1/1k"},
      {"gex.socket.coalesced_sends_per_frame", ratio(d([](const LayerSnap& s) { return s.writev_batches; }), records), "ratio"},
      {"gex.xfer.chunks_per_submit", ratio(d([](const LayerSnap& s) { return s.xfer.chunks_copied; }), d([](const LayerSnap& s) { return s.xfer.submitted; })), "count"},
      {"gex.xfer.max_inflight", max_inflight, "count"},
      {"gex.xfer.copy_bytes_per_payload_byte", ratio(d([](const LayerSnap& s) { return s.xfer.bytes_copied; }), static_cast<double>(tt.payload)), "ratio"},
      {"gex.rma_am.requests_per_op", ratio(requests, ops), "1/op"},
      {"gex.rma_am.queued_ratio", ratio(d([](const LayerSnap& s) { return s.rma.requests_queued; }), requests), "ratio"},
      {"gex.rma_am.ack_piggyback_ratio", ratio(piggy, piggy + standalone), "ratio"},
      {"gex.rma_am.staged_put_ratio", ratio(d([](const LayerSnap& s) { return s.rma.puts_staged; }), puts), "ratio"},
      {"gex.rma_am.stage_alloc_ratio", ratio(stage_allocs, staged), "ratio"},
      {"gex.rma_am.reply_fallbacks", d([](const LayerSnap& s) { return s.rma.reply_fallbacks; }), "count"},
      {"gex.rma_am.window_changes_per_1k_requests", 1e3 * ratio(d([](const LayerSnap& s) { return s.rma.window_grow + s.rma.window_shrink; }), requests), "1/1k"},
      {"gex.rma_am.send_stalls_per_1k_requests", 1e3 * ratio(d([](const LayerSnap& s) { return s.rma.send_stalls; }), requests), "1/1k"},
      {"apps.dht.segment_leaked_bytes", static_cast<double>(leaked), "bytes"},
      {"tail.write_p99_us", percentile(wp, 99) / 1e3, "us"},
      {"tail.read_p99_us", percentile(rp, 99) / 1e3, "us"},
      {"trace.initiate_self_ns", mean_ns(ts.sum(SpanName::kInitiate), true), "ns"},
      {"trace.wait_self_ns", mean_ns(ts.sum(SpanName::kWait), true), "ns"},
      {"trace.progress_self_ns", mean_ns(ts.sum(SpanName::kProgress), true), "ns"},
      {"trace.op_self_ns", ratio(static_cast<double>(op_spans.self_ns + done_spans.self_ns), ops), "ns"},
      {"trace.overhead_ratio", ratio(tp.ops_per_s, tt.ops_per_s), "ratio"},
  };
}

}  // namespace

const WorkloadInfo* find_workload(const std::string& name) {
  for (const Spec& s : specs())
    if (name == s.info.name) return &s.info;
  return nullptr;
}

int usable_cpus() {
  const std::size_t n = allowed_cpus().size();
  return n ? static_cast<int>(n) : 1;
}

RunResult run_workload(const RunParams& p) {
  RunResult res;
  try {
    const Spec& spec = spec_of(p.workload);
    Ctx cx;
    cx.p = &p;
    cx.cpus = allowed_cpus();
    // Rank 0's extra busy threads (inject's pool worker and injectors)
    // take the slots after its master's.
    cx.rank_slot[1] = spec.info.busy_threads[0];
    cx.pat = std::make_unique<Pattern>(p.seed, spec.pattern_bytes);

    // setup_s comes from back-to-back setup-only launches; a launch that
    // follows a measured slice starts with colder caches and would make
    // the median jump between two clusters.
    std::vector<double> setups, slice_setups;
    for (int i = 0; i < p.setup_reps; ++i) {
      const std::uint64_t t0 = now_ns();
      if (upcxx::run(spec.cfg, [&] { spmd(cx, p.workload, true); }))
        throw std::runtime_error("setup launch failed");
      setups.push_back(static_cast<double>(cx.setup_end_ns.load() - t0) * 1e-9);
    }

    // The measured time is cut into slices, each launch preceded by a
    // warm-up. With launch_per_slice every slice starts from fresh runtime
    // state and a slow regime stays inside one slice. A traced run
    // alternates untraced and traced slices, so drift within a run does not
    // masquerade as tracing overhead.
    const int slices = std::max(p.slices, p.trace ? 2 : 1);
    const int per_launch = spec.launch_per_slice ? 1 : slices;
    for (int q = 0; q < slices; q += per_launch) {
      cx.launch = static_cast<std::uint64_t>(q);
      cx.launch_phases.clear();
      auto add = [&](bool warmup, bool traced) {
        cx.phases.push_back(std::make_unique<PhaseData>());
        PhaseData& pd = *cx.phases.back();
        pd.warmup = warmup;
        pd.traced = traced;
        pd.seconds = warmup ? spec.warmup_s : p.seconds / slices;
        cx.launch_phases.push_back(&pd);
      };
      add(true, false);
      for (int k = q; k < q + per_launch; ++k) add(false, p.trace && k % 2 == 1);
      const std::uint64_t t0 = now_ns();
      if (upcxx::run(spec.cfg, [&] { spmd(cx, p.workload, false); })) {
        res.correct = false;
        res.error = "a rank failed";
      }
      slice_setups.push_back(static_cast<double>(cx.setup_end_ns.load() - t0) * 1e-9);
    }

    Phases all, plain, traced;
    for (const auto& pd : cx.phases) {
      all.push_back(pd.get());
      if (!pd->warmup) (pd->traced ? traced : plain).push_back(pd.get());
    }
    std::size_t slice = 0;
    for (const auto& ph : cx.phases) {
      const PhaseData& pd = *ph;
      if (pd.warmup) continue;
      Totals pt = totals({&pd});
      char line[200];
      std::snprintf(line, sizeof line,
                    "slice %zu: %s %.2f s, %llu ops, %.1f ops/s, write p50 "
                    "%.3f us, read p50 %.3f us",
                    slice++, pd.traced ? "traced" : "untraced",
                    pd.seconds, static_cast<unsigned long long>(pt.ops),
                    pt.ops_per_s, percentile(pt.write_ns, 50) / 1e3,
                    percentile(pt.read_ns, 50) / 1e3);
      res.notes.push_back(line);
    }
    auto note_setups = [&](const char* what, const std::vector<double>& v) {
      std::string line = what;
      char num[32];
      for (double x : v) {
        std::snprintf(num, sizeof num, " %.3f", x * 1e3);
        line += num;
      }
      res.notes.push_back(line + " (ms)");
    };
    note_setups("setup-only launches:", setups);
    note_setups("measured launches' setup:", slice_setups);
    const Totals t = totals(all);
    res.attempted = t.ops + t.failed + cx.extra_ops;
    res.failed = t.failed + cx.extra_failed;
    if (p.corrupt_every) res.corrupted = cx.reads_checked / p.corrupt_every;
    if (res.failed) res.correct = false;

    if (p.trace) {
      res.metrics = per_layer(cx, plain, traced);
      if (!p.trace_out.empty() && !cx.traces.write_chrome(p.trace_out)) {
        res.correct = false;
        res.error = "cannot write " + p.trace_out;
      }
    } else {
      res.metrics = end_to_end(plain, median(setups));
    }
  } catch (const std::exception& e) {
    res.correct = false;
    res.error = e.what();
  }
  if (res.attempted == 0) res.attempted = 1;  // the run itself was attempted
  return res;
}

}  // namespace perfbench
