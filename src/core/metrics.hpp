// Evaluation metrics: confusion matrices, accuracy / FPR / FNR (paper §V-A),
// the segmentation-quality rates of Fig. 22 (insertion, underfill), and the
// streaming input-hygiene counters of the online recogniser.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/segmenter.hpp"

namespace rfipad::core {

/// Input hygiene counters for the streaming recogniser: what
/// OnlineRecognizer::offer() did with reports that were not clean, in-order,
/// in-range deliveries.  Lives here (not online.hpp) so evaluation and
/// reporting code can consume the counters without pulling in the whole
/// recogniser.
struct OnlineStats {
  std::uint64_t accepted = 0;
  /// Non-finite or negative timestamp, non-finite phase/RSSI.
  std::uint64_t dropped_invalid = 0;
  /// Arrived after its stroke window was already consumed and trimmed.
  std::uint64_t dropped_late = 0;
  /// Tag index outside the calibrated array (e.g. a corrupted EPC).
  std::uint64_t dropped_unknown_tag = 0;
  /// Exact re-deliveries, dropped.
  std::uint64_t duplicates = 0;
  /// Accepted out of order (reinserted at their timestamp).
  std::uint64_t reordered = 0;
  /// Finite but implausibly far-future timestamps (corrupted wire clock),
  /// dropped so they cannot stall the recogniser watermark.  A genuine
  /// clock jump is accepted once a second report corroborates it.
  std::uint64_t dropped_future = 0;

  /// Everything offer() refused (excludes duplicates/reordered, which were
  /// handled, not lost).
  std::uint64_t totalDropped() const {
    return dropped_invalid + dropped_late + dropped_unknown_tag +
           dropped_future;
  }
};

/// One-line human-readable summary of the hygiene counters, e.g.
/// "accepted 1200 | dropped 34 (invalid 10, late 2, unknown-tag 20,
/// future 2) | duplicates 5 | reordered 1".
std::string formatOnlineStats(const OnlineStats& stats);

/// Backpressure counters for one bounded ingest queue of the session
/// serving layer (service/shard.hpp).  Lives here, next to OnlineStats, so
/// reporting and bench code can aggregate both without linking the service
/// library.
struct IngestQueueStats {
  /// Chunks accepted into the queue.
  std::uint64_t enqueued = 0;
  /// Chunks refused because the queue was full (kRejectNew policy).
  std::uint64_t rejected_full = 0;
  /// Chunks evicted from the queue front to admit a newer one
  /// (kDropOldest policy).
  std::uint64_t dropped_oldest = 0;
  /// Chunks refused because their session was not attached to the shard.
  std::uint64_t rejected_unknown_session = 0;
  /// Chunks drained and fed to their session's recogniser.
  std::uint64_t chunks_processed = 0;
  /// Reports fed (post fault-plan degradation).
  std::uint64_t reports_processed = 0;
  /// Deepest queue occupancy observed, in chunks.
  std::uint64_t high_watermark = 0;

  /// Chunks lost to backpressure (either policy).
  std::uint64_t droppedTotal() const { return rejected_full + dropped_oldest; }

  IngestQueueStats& operator+=(const IngestQueueStats& o);
};

/// One-line summary, e.g. "enqueued 5000 | processed 5000 chunks / 1.2e6
/// reports | backpressure 0 (full 0, evicted 0) | hwm 12".
std::string formatIngestQueueStats(const IngestQueueStats& stats);

/// Activity counters for the persistent pump runtime
/// (service/pump_runtime.hpp): how busy the workers were and how often the
/// adaptive-idle ladder reached the parked state.
struct PumpStats {
  /// Pump workers owned by the runtime.
  std::uint64_t workers = 0;
  /// Sweeps over a worker's owned shards that drained at least one chunk.
  std::uint64_t busy_passes = 0;
  /// Sweeps that found every owned shard empty.
  std::uint64_t idle_passes = 0;
  /// Times a worker exhausted the spin/yield ladder and blocked on its
  /// condvar.
  std::uint64_t parks = 0;
  /// Producer-side notifications that found the target worker parked.
  std::uint64_t wakeups = 0;

  PumpStats& operator+=(const PumpStats& o);
};

/// One-line summary, e.g. "workers 4 | passes 1200 busy / 300 idle |
/// parks 12 | wakeups 12".
std::string formatPumpStats(const PumpStats& stats);

class ConfusionMatrix {
 public:
  /// `n` classes; predictions of −1 count as misses (detected nothing).
  explicit ConfusionMatrix(int n);

  void add(int truth, int predicted);

  int classes() const { return n_; }
  int total() const { return total_; }
  int correct() const { return correct_; }
  int misses() const { return misses_; }
  double accuracy() const;
  /// Accuracy restricted to one true class.
  double classAccuracy(int truth) const;
  int count(int truth, int predicted) const;

 private:
  int n_;
  std::vector<int> cells_;  // n×n row-major, truth-major
  std::vector<int> class_total_;
  std::vector<int> class_correct_;
  int total_ = 0;
  int correct_ = 0;
  int misses_ = 0;
};

/// Detection bookkeeping for FPR/FNR: the paper defines FPR as the
/// percentage of falsely detected motions and FNR as the percentage of
/// undetected motions.
struct DetectionCounts {
  int truths = 0;            ///< ground-truth motions presented
  int detections = 0;        ///< intervals the system reported
  int matched = 0;           ///< detections overlapping a truth
  int false_positives = 0;   ///< detections in quiet periods
  int missed = 0;            ///< truths with no matching detection
  int underfilled = 0;       ///< matched detections covering < coverage gate

  double fpr() const;
  double fnr() const;
  /// Insertion rate (Fig. 22): spurious detections per presented stroke.
  double insertionRate() const;
  /// Underfill rate (Fig. 22): incomplete segmentations per matched stroke.
  double underfillRate() const;

  DetectionCounts& operator+=(const DetectionCounts& o);
};

struct MatchOptions {
  /// A detection matches a truth if their overlap covers at least this
  /// fraction of the *shorter* of the two intervals.
  double min_overlap_frac = 0.3;
  /// A matched detection is "underfilled" if it covers less than this
  /// fraction of the truth interval.
  double coverage_gate = 0.7;
};

/// Greedy in-order matching of detected intervals against truth intervals.
/// Returns per-truth matched detection index (−1 when missed) via
/// `assignment` (optional) and the aggregate counts.
DetectionCounts matchIntervals(const std::vector<Interval>& truth,
                               const std::vector<Interval>& detected,
                               const MatchOptions& options = {},
                               std::vector<int>* assignment = nullptr);

}  // namespace rfipad::core
