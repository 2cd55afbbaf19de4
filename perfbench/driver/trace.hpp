// In-memory span recorder for the traced benchmark run.
//
// Spans are placed by the benchmark around its calls into the program's
// public layer functions (llrp, service, core, sim); nothing is recorded
// inside the program itself.  Each span carries a name, steady-clock
// start/end, the enclosing span on the same thread (its parent) and a
// trace id (session or trial id) shared by the spans of one operation.
//
// Per-name aggregates (count, total time, self time = duration minus the
// time covered by child spans) are folded online when a span closes, so
// they stay exact even after the kept-span buffer is full.  The kept spans
// are written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic steady-clock time in nanoseconds.
std::int64_t nowNs();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span of its thread
  std::uint64_t trace = 0;   ///< session or trial id
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  /// Spans kept in memory for the written trace, over all threads.
  static constexpr std::size_t kMaxKept = 400000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-name aggregates merged over every thread.  Call after the
  /// traced threads have finished.
  std::vector<std::pair<std::string, SpanAggregate>> aggregates() const;
  SpanAggregate aggregate(const std::string& name) const;
  /// Spans that closed but did not fit the kept buffer.
  std::uint64_t droppedSpans() const;

  /// Writes the kept spans as tab-separated lines (one header line) with
  /// times relative to the earliest kept span.  Returns false on I/O error.
  bool write(const std::string& path, const std::string& header) const;

 private:
  friend class Span;
  struct Frame {
    std::uint64_t id;
    std::int64_t child_ns;
  };
  struct ThreadLog {
    Tracer* tracer = nullptr;
    std::uint32_t thread = 0;
    std::uint64_t next_seq = 0;
    std::vector<Frame> stack;
    /// Keyed by the name literal's address; names are string literals.
    std::vector<std::pair<const char*, SpanAggregate>> agg;
  };
  ThreadLog& local();

  const std::uint64_t generation_;
  /// kMaxKept slots; closing spans claim them in order, and closes past
  /// the last slot are counted as dropped.
  const std::unique_ptr<SpanRecord[]> kept_;
  std::atomic<std::size_t> closed_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Self time of the program-layer spans (llrp.*, service.*, core.*, sim.*)
/// recorded so far; 0 without a tracer.  Call while no other thread is
/// recording.
double layerSelfNs(const Tracer* tracer);

/// RAII span.  A null tracer makes it a no-op, so untraced runs pay one
/// branch per boundary.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t trace_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t trace_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace perfbench
