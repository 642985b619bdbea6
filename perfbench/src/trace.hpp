// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into the library (initiate, wait, progress) and around its op-level work.
//
// Each thread that records owns one Tracer (installed in a thread_local);
// spans nest on that thread's stack, so a span's parent is the span open
// beneath it and its self time is its duration minus its children's.
// Self and total times are summed per (span name, op kind) as spans close,
// so every span counts; the raw spans are kept in memory up to a budget
// and written out as one Chrome trace file at exit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kOp,        // root of one op on the issuing thread
  kInitiate,  // the call that starts an op (rpc/rput/rget/fetch_add/map)
  kWait,      // future::wait(), or a progress loop awaiting completions
  kProgress,  // one explicit upcxx::progress() call
  kComplete,  // the benchmark's completion callback (verification)
  kCount
};

enum class OpKind : std::uint8_t { kNone, kRpc, kRput, kRget, kAmo, kCount };

const char* span_name(SpanName n);
const char* op_kind_name(OpKind k);

struct SpanAgg {
  std::uint64_t n = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
};

struct SpanRec {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t op;     // op id shared by the spans of one op; 0 = none
  std::int32_t parent;  // index into the same thread's spans, -1 = root
  SpanName name;
  OpKind kind;
};

class Tracer {
 public:
  Tracer(int rank, int thread, std::size_t retain_cap);

  // A fresh op id, unique across threads of the run.
  std::uint64_t new_op() { return op_base_ | ++op_seq_; }

  void begin(SpanName name, OpKind kind, std::uint64_t op);
  void end();

  const SpanAgg& agg(SpanName n, OpKind k) const {
    return agg_[static_cast<int>(n)][static_cast<int>(k)];
  }
  // Summed over op kinds.
  SpanAgg agg(SpanName n) const;

  int rank() const { return rank_; }
  int thread() const { return thread_; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  struct Frame {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int32_t rec;  // retained record, or -1
    SpanName name;
    OpKind kind;
  };

  int rank_;
  int thread_;
  std::size_t cap_;
  std::uint64_t op_base_;
  std::uint64_t op_seq_ = 0;
  std::vector<Frame> stack_;
  std::vector<SpanRec> spans_;
  SpanAgg agg_[static_cast<int>(SpanName::kCount)]
              [static_cast<int>(OpKind::kCount)];
};

// The calling thread's tracer; null when the run is untraced.
Tracer* tracer();
void set_tracer(Tracer* t);

// RAII span on the calling thread's tracer; free when untraced.
class Span {
 public:
  Span(SpanName name, OpKind kind = OpKind::kNone, std::uint64_t op = 0)
      : t_(tracer()) {
    if (t_) t_->begin(name, kind, op);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// Owns every tracer of a run so their spans outlive the recording threads.
// The first tracers made share a budget of retained spans (16 Ki each,
// 64 Ki in all), which bounds the trace file at about 10 MB.
class TraceSet {
 public:
  Tracer* make(int rank, int thread);
  std::vector<const Tracer*> all() const;
  SpanAgg sum(SpanName n) const;
  SpanAgg sum(SpanName n, OpKind k) const;
  // Writes {"traceEvents": [...]} (Chrome trace format, one "X" event per
  // retained span; pid = rank, tid = thread). Returns false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::size_t retain_left_ = 1u << 16;
};

}  // namespace perfbench
