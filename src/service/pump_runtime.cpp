#include "service/pump_runtime.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "service/shard.hpp"

namespace rfipad::service {

namespace {
std::atomic<std::uint64_t> runtimes_constructed{0};
}  // namespace

std::uint64_t PumpRuntime::constructedCount() {
  return runtimes_constructed.load(std::memory_order_relaxed);
}

PumpRuntime::PumpRuntime(std::vector<Shard*> shards,
                         PumpRuntimeOptions options)
    : shards_(std::move(shards)), options_(options) {
  runtimes_constructed.fetch_add(1, std::memory_order_relaxed);
  if (shards_.empty())
    throw std::invalid_argument("PumpRuntime: need at least one shard");
  for (const Shard* s : shards_)
    RFIPAD_ASSERT(s != nullptr, "PumpRuntime: null shard");
  std::size_t n = resolveThreadCount(options_.workers);
  if (n > shards_.size()) n = shards_.size();
  workers_.reserve(n);
  for (std::size_t w = 0; w < n; ++w)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t w = 0; w < n; ++w)
    workers_[w]->thread = std::thread([this, w] { workerLoop(w); });
}

PumpRuntime::~PumpRuntime() { stop(); }

void PumpRuntime::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    // Same handshake as notify(): flip to running, then lock/unlock the
    // worker's mutex before signalling so the wakeup cannot be lost.
    w->state.exchange(kRunning, std::memory_order_acq_rel);
    w->wakeAll();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

bool PumpRuntime::anyOwnedPending(std::size_t w) const {
  for (std::size_t s = w; s < shards_.size(); s += workers_.size())
    if (!shards_[s]->ringEmptyApprox()) return true;
  return false;
}

void PumpRuntime::workerLoop(std::size_t w) {
  // A pump worker counts as a "worker thread" for parallelFor's nesting
  // detection: any sweep reached from a session feed runs inline instead
  // of bouncing to the shared pool mid-pump.
  ThreadPool::markCurrentThreadAsWorker();
  if (options_.pin_threads) {
    const unsigned hw = resolveThreadCount(0);
    pinCurrentThreadToCpu(static_cast<unsigned>(w) % hw);
  }
  Worker& self = *workers_[w];
  int idle_streak = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    bool drained = false;
    for (std::size_t s = w; s < shards_.size(); s += workers_.size())
      drained = shards_[s]->pump() || drained;
    if (drained) {
      self.busy_passes.fetch_add(1, std::memory_order_relaxed);
      idle_streak = 0;
      continue;
    }
    self.idle_passes.fetch_add(1, std::memory_order_relaxed);
    ++idle_streak;
    if (idle_streak <= options_.spin_passes) continue;
    if (idle_streak <= options_.spin_passes + options_.yield_passes) {
      std::this_thread::yield();
      continue;
    }
    // Park: count, advertise, re-check, then wait (see the file comment
    // in pump_runtime.hpp for why this cannot lose a wakeup).  Counting
    // before the release exchange means a reader that sees kParked also
    // sees the count: stats().parks >= parkedWorkers() always.
    self.parks.fetch_add(1, std::memory_order_relaxed);
    self.state.exchange(kParked, std::memory_order_acq_rel);
    if (stop_.load(std::memory_order_acquire) || anyOwnedPending(w)) {
      self.state.store(kRunning, std::memory_order_release);
      idle_streak = 0;
      continue;
    }
    self.parkUntilRunning();
    idle_streak = 0;
  }
}

RFIPAD_HOT_PATH
void PumpRuntime::notify(std::size_t shard) {
  RFIPAD_ASSERT(shard < shards_.size(), "PumpRuntime::notify: bad shard");
  Worker& w = *workers_[ownerOf(shard)];
  // Always an RMW, never a plain load: two RMWs on `state` are totally
  // ordered, so either this exchange reads kParked (we deliver a notify)
  // or the worker's park-exchange reads-from ours and its ring re-check
  // happens-after our enqueue (it does not park).  A relaxed load here
  // could see a stale kRunning while the worker is parking — a lost
  // wakeup.
  if (w.state.exchange(kRunning, std::memory_order_acq_rel) == kParked) {
    w.wakeups.fetch_add(1, std::memory_order_relaxed);
    w.wake();
  }
}

core::PumpStats PumpRuntime::stats() const {
  core::PumpStats out;
  out.workers = workers_.size();
  for (const auto& w : workers_) {
    out.busy_passes += w->busy_passes.load(std::memory_order_relaxed);
    out.idle_passes += w->idle_passes.load(std::memory_order_relaxed);
    out.parks += w->parks.load(std::memory_order_relaxed);
    out.wakeups += w->wakeups.load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t PumpRuntime::parkedWorkers() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_)
    if (w->state.load(std::memory_order_acquire) == kParked) ++n;
  return n;
}

}  // namespace rfipad::service
