// One shard of the serving layer: a bounded lock-free MPSC ingest ring
// plus the sessions resident on it.
//
// Concurrency model (annotated for -Wthread-safety where locks are used):
//   - enqueue() is the producer side: any thread, any time.  It touches
//     only the lock-free ring and a few atomics — producers NEVER take a
//     shard mutex on the ingest hot path, so a slow pump pass cannot
//     block ingest (and ingest cannot block the pump).  Backpressure is
//     counted per outcome: rejected (kRejectNew) or evict-oldest
//     (kDropOldest, the producer performs the eviction dequeue itself —
//     the ring is MPMC-capable).
//   - pump() is the consumer side: it drains the ring and feeds sessions
//     under `state_mutex_`.  The pump runtime gives each shard to exactly
//     one worker, but the locking is correct even if two pumps raced.
//   - attach/detach/poll/stats take `state_mutex_` and may run between
//     (or concurrently with) pump passes.
//   - stats() builds the whole IngestQueueStats snapshot in one place:
//     consumer tallies are read under `state_mutex_` (the same mutex the
//     pump holds while bumping them), then the ring's monotone counters —
//     in that order, so `chunks_processed + unknown <= dequeued <=
//     enqueued` holds in every snapshot instead of the torn totals the
//     old two-lock read could produce.
//
// Cross-session batching: every session on the shard shares the shard's
// one SegmentScratch — the bucketed calibrated-phase plane, bucket bounds
// and interval lists of each segmentation pass are allocated once per
// shard instead of once per session; a session keeps only its trace and a
// window's carry (core/stream_segmenter.hpp).  With thousands of
// co-resident sessions this is the difference between a cache-resident
// working set and thousands of cold heaps; outputs stay bit-identical
// because a pass reads nothing from the scratch before rewriting it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/mpsc_ring.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "service/session.hpp"

namespace rfipad::service {

struct ShardOptions {
  /// Ingest ring capacity, in chunks (rounded up to a power of two).
  std::size_t queue_capacity = 256;
  OverflowPolicy policy = OverflowPolicy::kRejectNew;
};

class Shard {
 public:
  explicit Shard(ShardOptions options);

  /// Producer side: queue one chunk for `session`.  Lock-free — returns
  /// false when the chunk was refused (kRejectNew policy on a full ring);
  /// with kDropOldest it always returns true, evicting the oldest chunk
  /// when full.  Every outcome is counted in the queue stats.
  bool enqueue(SessionId session, std::vector<reader::TagReport> chunk)
      RFIPAD_EXCLUDES(state_mutex_);

  /// Consumer side: drain the ring and feed each chunk to its session, in
  /// arrival order, sharing the shard scratch across all of them.
  /// Returns true when at least one chunk was drained (the pump runtime's
  /// idle ladder keys off this).
  bool pump() RFIPAD_EXCLUDES(state_mutex_);

  /// True when the ingest ring looks empty (approximate — exact once
  /// producers are quiescent).  Cheap enough for idle polling.
  bool ringEmptyApprox() const { return ring_.emptyApprox(); }

  /// Chunks fully accounted for: fed to a session, counted as
  /// unknown-session, or evicted by kDropOldest.  Monotone; a producer
  /// that saw its enqueue accepted can wait for this to reach its target
  /// to know the chunk's recognition work is done.
  std::uint64_t processedChunks() const {
    return accounted_chunks_.load(std::memory_order_acquire) +
           dropped_oldest_.load(std::memory_order_relaxed);
  }

  void attach(SessionId id, SessionConfig config)
      RFIPAD_EXCLUDES(state_mutex_);
  /// Flush and remove a session; returns its final events (including any
  /// letter the flush emitted) or an empty vector when unknown.  `found`
  /// (optional) reports whether the session existed; `final_stats` receives
  /// its lifetime counters.
  std::vector<LetterEvent> detach(SessionId id, bool* found = nullptr,
                                  ServiceStats* final_stats = nullptr)
      RFIPAD_EXCLUDES(state_mutex_);

  bool configure(SessionId id, fault::FaultPlan plan, std::uint64_t salt)
      RFIPAD_EXCLUDES(state_mutex_);
  bool subscribe(SessionId id, bool enabled) RFIPAD_EXCLUDES(state_mutex_);

  /// Move out a session's pending letter events.
  std::vector<LetterEvent> poll(SessionId id) RFIPAD_EXCLUDES(state_mutex_);

  /// Flush every resident session (end of stream) without detaching.
  void flushAll() RFIPAD_EXCLUDES(state_mutex_);

  std::size_t sessionCount() const RFIPAD_EXCLUDES(state_mutex_);

  /// Aggregate queue + recogniser counters over resident sessions.
  /// `session` == kNoSession aggregates the whole shard (queue counters
  /// are shard-level either way).  Returns false for an unknown session.
  bool stats(SessionId session, ServiceStats& out) const
      RFIPAD_EXCLUDES(state_mutex_);

 private:
  struct IngestItem {
    SessionId session = kNoSession;
    std::vector<reader::TagReport> reports;
  };

  ShardOptions options_;

  /// Bounded by options_.queue_capacity (power-of-two rounded) — the ring
  /// never grows; enqueue() rejects or evicts once full.
  MpscRing<IngestItem> ring_;
  /// Producer-side backpressure counters (no lock on the ingest path).
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> dropped_oldest_{0};
  /// Consumer progress: bumped (release) at the end of each pump pass so
  /// processedChunks() readers also see the session state those chunks
  /// produced.
  std::atomic<std::uint64_t> accounted_chunks_{0};

  mutable Mutex state_mutex_;
  /// Ordered map: shard-wide sweeps (flushAll, stats) iterate in session-id
  /// order, keeping every aggregate deterministic.
  std::map<SessionId, std::unique_ptr<Session>> sessions_
      RFIPAD_GUARDED_BY(state_mutex_);
  /// The shared cross-session segmentation scratch (see file comment).
  core::SegmentScratch scratch_ RFIPAD_GUARDED_BY(state_mutex_);
  /// Reused drain buffer for pump() (steady-state allocation-free).
  std::vector<IngestItem> drain_ RFIPAD_GUARDED_BY(state_mutex_);
  /// Consumer-side tallies, written only by pump passes (which serialise
  /// on state_mutex_).
  std::uint64_t chunks_processed_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t reports_processed_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t unknown_session_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
  /// Lifetime counters of sessions already detached, so shard aggregates
  /// do not shrink when a session leaves.
  core::OnlineStats retired_online_ RFIPAD_GUARDED_BY(state_mutex_);
  std::uint64_t retired_letters_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t retired_evicted_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t attached_total_ RFIPAD_GUARDED_BY(state_mutex_) = 0;
};

}  // namespace rfipad::service
