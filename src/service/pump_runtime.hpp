// Persistent pump runtime: dedicated worker threads that own disjoint,
// fixed sets of shards and drain their ingest rings continuously, so the
// serving layer no longer depends on callers driving pump() sweeps.
//
// Ownership and determinism: worker `w` of `W` owns exactly the shards
// `{s : s % W == w}` — a pure function of the shard id, never rebalanced.
// Each shard therefore has one consumer for the runtime's lifetime, every
// session's chunks are processed in ring (FIFO = ingest) order, and a
// session's letters are a pure function of its own report sequence
// (Session::feed drives the recogniser per report, not per chunk) — so
// letters are bit-identical at any worker count.
//
// Adaptive idle: a worker that finds all its shards empty walks a
// spin → yield → park ladder and finally blocks on its private condvar.
// The park/wake handshake is built on one atomic state word per worker:
//
//   worker:  state.exchange(kParked, acq_rel);
//            if (stop or any owned ring non-empty) { state = kRunning;
//              continue; }                  // re-check AFTER advertising
//            { lock(m); while (state == kParked) cv.wait(m); }
//
//   producer (after its ring enqueue):
//            if (state.exchange(kRunning, acq_rel) == kParked) {
//              { lock(m); }                 // empty critical section:
//              cv.notifyOne();              // orders notify after wait
//            }
//
// Either the producer's exchange happens before the worker's (worker then
// reads kRunning back / its acquire sees the enqueue during the re-check
// and it does not park), or after (producer reads kParked and delivers a
// notify that cannot be lost: the empty lock/unlock of `m` means the
// notify cannot run between the worker's state check and its wait).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/metrics.hpp"

namespace rfipad::service {

class Shard;

struct PumpRuntimeOptions {
  /// Worker threads; < 1 resolves to hardware concurrency (capped at the
  /// shard count — extra workers would own nothing).
  int workers = 0;
  /// Best-effort pin worker w to CPU (w % hardware_concurrency).
  bool pin_threads = false;
  /// Idle ladder: passes of pure spinning, then passes that yield, then
  /// park on the condvar.
  int spin_passes = 16;
  int yield_passes = 16;
};

class PumpRuntime {
 public:
  /// Starts the workers immediately.  `shards` must outlive the runtime
  /// and its size must be >= 1.
  PumpRuntime(std::vector<Shard*> shards, PumpRuntimeOptions options);
  ~PumpRuntime();

  PumpRuntime(const PumpRuntime&) = delete;
  PumpRuntime& operator=(const PumpRuntime&) = delete;

  /// Worker that owns `shard` (shard % workers — the fixed assignment).
  std::size_t ownerOf(std::size_t shard) const {
    return shard % workers_.size();
  }

  std::size_t workerCount() const { return workers_.size(); }

  /// Producer-side wake hook: call after enqueueing onto `shard`'s ring.
  /// Lock-free unless the owning worker is parked.
  void notify(std::size_t shard);

  /// Stop and join all workers (idempotent; the destructor calls it).
  /// Workers finish their current pass; rings may retain unpumped chunks.
  void stop();

  /// Aggregate activity counters over all workers.  `parks` counts park
  /// attempts: a worker counts one before it advertises kParked, including
  /// attempts its re-check then abandons, so stats().parks >=
  /// parkedWorkers() whenever stats() is read after parkedWorkers().
  core::PumpStats stats() const;

  /// Workers currently advertising kParked (for idle-cost tests).
  std::uint64_t parkedWorkers() const;

  /// Process-wide count of PumpRuntime constructions — the serving hot
  /// path must not spin up transient runtimes (same regression pattern as
  /// ThreadPool::constructedCount()).
  static std::uint64_t constructedCount();

 private:
  enum State : int { kRunning = 0, kParked = 1 };

  struct Worker {
    std::thread thread;
    std::atomic<int> state{kRunning};
    Mutex m;
    CondVar cv;
    std::atomic<std::uint64_t> busy_passes{0};
    std::atomic<std::uint64_t> idle_passes{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakeups{0};

    /// Worker-side wait half of the park/wake handshake: blocks until a
    /// producer or stop() flips `state` back to kRunning.  Must be called
    /// only after advertising kParked and re-checking the rings (see the
    /// file comment).
    void parkUntilRunning() RFIPAD_EXCLUDES(m) {
      MutexLock lock(m);
      while (state.load(std::memory_order_acquire) == kParked) cv.wait(m);
    }

    /// Producer-side wake: the empty critical section guarantees the
    /// worker is either before its state re-check (it will see kRunning)
    /// or already inside cv.wait (the notify lands) — never between.
    void wake() RFIPAD_EXCLUDES(m) {
      { MutexLock lock(m); }
      cv.notifyOne();
    }

    /// stop()'s variant of wake() (notifyAll, same lost-wakeup argument).
    void wakeAll() RFIPAD_EXCLUDES(m) {
      { MutexLock lock(m); }
      cv.notifyAll();
    }
  };

  void workerLoop(std::size_t w);
  bool anyOwnedPending(std::size_t w) const;

  std::vector<Shard*> shards_;
  PumpRuntimeOptions options_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  /// Bounded: one Worker per thread, sized once at construction.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rfipad::service
