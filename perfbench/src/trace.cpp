#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common.hpp"

namespace perfbench {

namespace {
thread_local Tracer* t_tracer = nullptr;
std::mutex g_trace_mu;  // guards TraceSet::tracers_ across rank threads
}  // namespace

Tracer* tracer() { return t_tracer; }
void set_tracer(Tracer* t) { t_tracer = t; }

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOp: return "op";
    case SpanName::kInitiate: return "initiate";
    case SpanName::kWait: return "wait";
    case SpanName::kProgress: return "progress";
    case SpanName::kComplete: return "complete";
    default: return "?";
  }
}

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kNone: return "";
    case OpKind::kRpc: return "rpc";
    case OpKind::kRput: return "rput";
    case OpKind::kRget: return "rget";
    case OpKind::kAmo: return "amo";
    default: return "?";
  }
}

Tracer::Tracer(int rank, int thread, std::size_t retain_cap)
    : rank_(rank),
      thread_(thread),
      cap_(retain_cap),
      op_base_((std::uint64_t(rank) << 48) | (std::uint64_t(thread) << 40)) {
  stack_.reserve(16);
  spans_.reserve(retain_cap);
}

void Tracer::begin(SpanName name, OpKind kind, std::uint64_t op) {
  std::int32_t rec = -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().rec;
  // A span is retained only when its parent was, so parent links stay
  // valid once the cap is hit.
  if (spans_.size() < cap_ && (stack_.empty() || parent >= 0)) {
    rec = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({0, 0, op, parent, name, kind});
  }
  const std::uint64_t t = now_ns();
  if (rec >= 0) spans_[static_cast<std::size_t>(rec)].start_ns = t;
  stack_.push_back({t, 0, rec, name, kind});
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - f.start_ns;
  SpanAgg& a = agg_[static_cast<int>(f.name)][static_cast<int>(f.kind)];
  ++a.n;
  a.dur_ns += dur;
  a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.rec >= 0) spans_[static_cast<std::size_t>(f.rec)].end_ns = t;
}

SpanAgg Tracer::agg(SpanName n) const {
  SpanAgg s;
  for (int k = 0; k < static_cast<int>(OpKind::kCount); ++k) {
    const SpanAgg& a = agg_[static_cast<int>(n)][k];
    s.n += a.n;
    s.dur_ns += a.dur_ns;
    s.self_ns += a.self_ns;
  }
  return s;
}

Tracer* TraceSet::make(int rank, int thread) {
  std::lock_guard<std::mutex> g(g_trace_mu);
  const std::size_t cap = std::min<std::size_t>(1u << 14, retain_left_);
  retain_left_ -= cap;
  tracers_.push_back(std::make_unique<Tracer>(rank, thread, cap));
  return tracers_.back().get();
}

std::vector<const Tracer*> TraceSet::all() const {
  std::lock_guard<std::mutex> g(g_trace_mu);
  std::vector<const Tracer*> out;
  for (const auto& t : tracers_) out.push_back(t.get());
  return out;
}

SpanAgg TraceSet::sum(SpanName n) const {
  SpanAgg s;
  for (const Tracer* t : all()) {
    const SpanAgg a = t->agg(n);
    s.n += a.n;
    s.dur_ns += a.dur_ns;
    s.self_ns += a.self_ns;
  }
  return s;
}

SpanAgg TraceSet::sum(SpanName n, OpKind k) const {
  SpanAgg s;
  for (const Tracer* t : all()) {
    const SpanAgg& a = t->agg(n, k);
    s.n += a.n;
    s.dur_ns += a.dur_ns;
    s.self_ns += a.self_ns;
  }
  return s;
}

bool TraceSet::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const auto tracers = all();
  std::uint64_t t0 = ~0ull;
  for (const Tracer* t : tracers)
    for (const SpanRec& s : t->spans()) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::size_t base = 0;  // ids are unique across tracers
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base) + s.parent;
      std::fprintf(f,
                   "%s{\"name\":\"%s%s%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"op\":%llu}}",
                   first ? "" : ",\n", span_name(s.name),
                   s.kind == OpKind::kNone ? "" : ".", op_kind_name(s.kind),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, t->rank(),
                   t->thread(), base + i, parent,
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
    base += spans.size();
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
