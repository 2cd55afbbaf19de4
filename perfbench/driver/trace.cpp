#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

struct LocalCache {
  std::uint64_t generation = 0;
  void* log = nullptr;
};
thread_local LocalCache t_cache;

// Span-name prefixes that are program layers; the rest (gen.*, battery.*)
// is the benchmark's own work.
const char* const kLayerPrefixes[] = {"llrp.", "service.", "core.", "sim."};

}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      kept_(new SpanRecord[kMaxKept]) {}

Tracer::ThreadLog& Tracer::local() {
  // The generation (not the address) identifies the tracer, so a new
  // tracer allocated where an old one lived never sees a stale log.
  if (t_cache.generation == generation_)
    return *static_cast<ThreadLog*>(t_cache.log);
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog& log = *logs_.back();
  log.tracer = this;
  log.thread = static_cast<std::uint32_t>(logs_.size() - 1);
  t_cache.generation = generation_;
  t_cache.log = &log;
  return log;
}

std::vector<std::pair<std::string, SpanAggregate>> Tracer::aggregates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, SpanAggregate>> out;
  for (const auto& log : logs_) {
    for (const auto& [name, a] : log->agg) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == name; });
      if (it == out.end()) {
        out.emplace_back(name, a);
      } else {
        it->second.count += a.count;
        it->second.total_ns += a.total_ns;
        it->second.self_ns += a.self_ns;
      }
    }
  }
  return out;
}

SpanAggregate Tracer::aggregate(const std::string& name) const {
  for (const auto& [n, a] : aggregates())
    if (n == name) return a;
  return {};
}

std::uint64_t Tracer::droppedSpans() const {
  const std::size_t closed = closed_.load(std::memory_order_acquire);
  return closed > kMaxKept ? closed - kMaxKept : 0;
}

double layerSelfNs(const Tracer* tracer) {
  if (tracer == nullptr) return 0.0;
  double ns = 0.0;
  for (const auto& [name, a] : tracer->aggregates())
    for (const char* prefix : kLayerPrefixes)
      if (name.rfind(prefix, 0) == 0) ns += static_cast<double>(a.self_ns);
  return ns;
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(closed_.load(std::memory_order_acquire), kMaxKept);
  std::int64_t t0 = INT64_MAX;
  for (std::size_t i = 0; i < n; ++i) t0 = std::min(t0, kept_[i].start_ns);
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f, "id\tparent\ttrace\tthread\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = kept_[i];
    std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.thread, s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t trace_id) {
  if (tracer == nullptr) return;
  log_ = &tracer->local();
  name_ = name;
  trace_ = trace_id;
  parent_ = log_->stack.empty() ? 0 : log_->stack.back().id;
  // Span ids are unique per run: thread index in the top bits.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(log_->thread + 1) << 40) | ++log_->next_seq;
  log_->stack.push_back({id, 0});
  start_ns_ = nowNs();
}

Span::~Span() {
  if (log_ == nullptr) return;
  const std::int64_t end_ns = nowNs();
  const Tracer::Frame frame = log_->stack.back();
  log_->stack.pop_back();
  const std::int64_t dur = end_ns - start_ns_;
  if (!log_->stack.empty()) log_->stack.back().child_ns += dur;

  auto it = std::find_if(log_->agg.begin(), log_->agg.end(),
                         [&](const auto& e) { return e.first == name_; });
  if (it == log_->agg.end()) {
    log_->agg.emplace_back(name_, SpanAggregate{});
    it = log_->agg.end() - 1;
  }
  ++it->second.count;
  it->second.total_ns += dur;
  it->second.self_ns += dur - frame.child_ns;

  Tracer& tracer = *log_->tracer;
  const std::size_t slot = tracer.closed_.fetch_add(1, std::memory_order_acq_rel);
  if (slot < Tracer::kMaxKept)
    tracer.kept_[slot] = {frame.id, parent_, trace_, name_, start_ns_, end_ns, log_->thread};
}

}  // namespace perfbench
