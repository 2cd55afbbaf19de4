// A time-ordered capture of tag reports plus per-tag slicing utilities.
// This is the only data structure the RFIPad recognition pipeline consumes —
// the same information a real deployment would pull from the reader SDK.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "reader/tag_report.hpp"

namespace rfipad::reader {

/// One tag's time series extracted from a stream.
struct TagSeries {
  std::uint32_t tag_index = 0;
  std::vector<double> times;
  std::vector<double> phases;
  std::vector<double> rssi;
};

/// Every tag's series in one flat structure-of-arrays block: samples are
/// grouped by tag (time order preserved within each tag), with
/// offsets[i]..offsets[i+1] delimiting tag i's slice of each array.  Built
/// by one counting-sort pass over the reports — four allocations total,
/// versus 3·num_tags vectors for allSeries() — and the per-(tag, frame)
/// buckets the segmenter needs become contiguous sub-slices.
struct FlatSeries {
  std::uint32_t num_tags = 0;
  std::vector<std::size_t> offsets;  ///< size num_tags + 1
  std::vector<double> times;
  std::vector<double> phases;
  std::vector<double> rssi;

  std::size_t countFor(std::uint32_t tag) const {
    return offsets[tag + 1] - offsets[tag];
  }
};

/// What push() did with a report (callers may ignore it; the stream also
/// keeps aggregate counters).
enum class PushOutcome : std::uint8_t {
  kAppended,   ///< in time order, appended (the fast path)
  kReordered,  ///< arrived out of order, inserted at its timestamp
  kDuplicate,  ///< exact duplicate of a stored report, dropped
  kInvalid,    ///< non-finite timestamp, dropped
};

/// Thread-compatible value type: distinct SampleStream objects may be used
/// from distinct threads freely, but one object must not be mutated
/// concurrently — wrap shared accumulation in a ConcurrentStreamSink
/// (below) or hold an external lock (llrp::OctaneClient does the latter).
class SampleStream {
 public:
  SampleStream() = default;
  explicit SampleStream(std::uint32_t numTags) : num_tags_(numTags) {}

  /// Add one report.  Reports normally arrive in time order (the fast
  /// append path); an out-of-order report is inserted at its timestamp and
  /// counted in reorderCount() so callers can observe transport disorder
  /// instead of silently mis-ordering or crashing.  Exact duplicates
  /// (re-delivery after a link hiccup) and non-finite timestamps are
  /// dropped and counted.
  PushOutcome push(TagReport report);
  void reserve(std::size_t n) { reports_.reserve(front_ + n); }

  /// Advance the stream's window: logically discard every report with
  /// time < t.  Amortised O(1) per discarded report — the front index
  /// advances by binary search and the physical prefix is compacted only
  /// once the discarded region reaches half the storage, so a streaming
  /// consumer trimming against a horizon (OnlineRecognizer) never pays a
  /// linear erase per tick.  Counters and numTags() are unaffected.
  void dropBefore(double t);

  /// Reports accepted out of time order since construction.
  std::uint64_t reorderCount() const { return reorder_count_; }
  /// Exact duplicates dropped.
  std::uint64_t duplicateCount() const { return duplicate_count_; }
  /// Reports dropped for a non-finite timestamp.
  std::uint64_t invalidCount() const { return invalid_count_; }

  std::size_t size() const { return reports_.size() - front_; }
  bool empty() const { return size() == 0; }
  /// The live window (everything pushed and not dropBefore()-discarded),
  /// in time order.  A view into the stream's storage: invalidated by any
  /// mutation, like a vector reference would be.
  std::span<const TagReport> reports() const {
    return {reports_.data() + front_, size()};
  }
  const TagReport& operator[](std::size_t i) const {
    return reports_[front_ + i];
  }

  std::uint32_t numTags() const { return num_tags_; }
  void setNumTags(std::uint32_t n) { num_tags_ = n; }

  double startTime() const { return empty() ? 0.0 : reports_[front_].time_s; }
  double endTime() const { return empty() ? 0.0 : reports_.back().time_s; }
  double durationS() const { return endTime() - startTime(); }

  /// Reads belonging to one tag, in time order.
  TagSeries seriesFor(std::uint32_t tagIndex) const;
  /// All per-tag series (index == tag index; absent tags give empty series).
  std::vector<TagSeries> allSeries() const;
  /// All per-tag series as one flat SoA block.
  FlatSeries flatSeries() const;

  std::size_t countFor(std::uint32_t tagIndex) const;
  /// Aggregate read rate over the capture, reads/second.
  double readRateHz() const;

  /// Sub-stream restricted to [t0, t1).  Bounds must not be NaN; an
  /// inverted window (t1 < t0) yields an empty stream.
  SampleStream slice(double t0, double t1) const;

  /// Sub-stream of reports taken on one hop channel (±1 kHz tolerance).
  /// Under frequency hopping, phase offsets differ per channel, so
  /// calibration and recognition must be run per channel.
  SampleStream filterChannel(double channel_mhz) const;

  /// Distinct hop channels present in the capture, ascending MHz.
  std::vector<double> channels() const;

  /// Append another stream (reports landing before this stream's end are
  /// merged at their timestamps and counted as reordered).
  void append(const SampleStream& other);

 private:
  std::vector<TagReport> reports_;
  /// Index of the first live report: dropBefore() advances this instead of
  /// erasing, so the storage is a deque-like window over a plain vector.
  std::size_t front_ = 0;
  std::uint32_t num_tags_ = 0;
  std::uint64_t reorder_count_ = 0;
  std::uint64_t duplicate_count_ = 0;
  std::uint64_t invalid_count_ = 0;
};

/// Temporal gap imputation (missing-data recovery, stage 1 of the pipeline
/// in DESIGN.md §9).  Bursty miss-reads leave per-tag holes in the capture;
/// short holes are bridged by linear interpolation so the downstream
/// activation/segmentation stages see a steady series again.
struct GapImputeOptions {
  bool enabled = false;
  /// Longest per-tag read gap bridged, seconds.  Gaps longer than this are
  /// genuine outages and must pass through untouched — inventing a second
  /// of motion would be worse than the hole.
  double max_gap_s = 0.50;
  /// Target spacing of synthetic reads inside a bridged gap; 0 derives each
  /// tag's nominal inter-read spacing from the stream itself using
  /// `spacing_quantile` (below).
  double target_dt_s = 0.0;
  /// Quantile of a tag's observed inter-read spacings taken as its nominal
  /// spacing.  A low quantile stays anchored to the clean read rate even
  /// when heavy loss has inflated the median: bursty loss leaves runs of
  /// back-to-back clean reads, and those short spacings dominate the lower
  /// quantiles.
  double spacing_quantile = 0.25;
  /// Only gaps wider than this multiple of the nominal spacing are bridged.
  /// Gen2 inventory spacing is bursty even on a clean link (Q-algorithm
  /// back-off), and interpolating across a gap the tag was merely slow to
  /// answer smooths real motion out of the phase series — so demand a gap
  /// that only a dropped-read burst can produce.  Tuned (with the quantile
  /// and arc gates above/below) by bench_fault_sweep: at these settings the
  /// bridge is a no-op on clean captures and recovers accuracy under
  /// 25–60% bursty loss.
  double min_gap_factor = 6.0;
  /// Skip gaps whose endpoint phases differ by more than this (radians,
  /// shortest arc).  A wide arc means the hand moved substantially inside
  /// the gap; linear interpolation would invent a trajectory the tag never
  /// saw and flatten the very activity the gray-map measures.
  double max_arc_rad = 1.5707963267948966;
  /// Cap on synthetic reads per gap (bounds memory if target_dt_s is
  /// misconfigured far below the real read rate).
  std::size_t max_inserted_per_gap = 8;
};

struct GapImputeStats {
  std::uint64_t gaps_bridged = 0;
  std::uint64_t reports_inserted = 0;
  /// Gaps wider than max_gap_s, passed through untouched.
  std::uint64_t gaps_too_long = 0;
  /// Gaps whose endpoints sit on different hop channels (phase offsets are
  /// not comparable across channels, so no interpolation).
  std::uint64_t gaps_cross_channel = 0;
  /// Gaps whose endpoint phases differ by more than max_arc_rad — the hand
  /// moved during the gap, so interpolation would fabricate the trajectory.
  std::uint64_t gaps_arc_too_wide = 0;
};

/// Bridge per-tag read gaps by linear interpolation over the flatSeries()
/// planes: phase along the shortest circular arc between the endpoint
/// reads, RSSI linearly, timestamps evenly spaced.  Synthetic reports carry
/// `imputed = true` and copy EPC/antenna/channel from the earlier endpoint.
/// Pure function of (stream, options): no randomness, bit-identical output
/// for identical input.  With `enabled == false` the input stream is
/// returned byte-exactly.
SampleStream imputeGaps(const SampleStream& in, const GapImputeOptions& options,
                        GapImputeStats* stats = nullptr);

/// Mutex-guarded fan-in point for multi-reader capture: several pump
/// threads (one per antenna / Speedway) push into one sink, and the
/// merged, time-sorted stream is taken out once the pumps have joined.
/// push() relies on SampleStream's out-of-order insertion, so interleaved
/// arrival order across producers does not disturb the time-sorted
/// invariant.  Lock discipline is annotated for -Wthread-safety.
class ConcurrentStreamSink {
 public:
  ConcurrentStreamSink() = default;
  explicit ConcurrentStreamSink(std::uint32_t numTags) : stream_(numTags) {}

  PushOutcome push(const TagReport& report) RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stream_.push(report);
  }

  /// Merge a whole per-producer stream under one lock acquisition.
  void append(const SampleStream& other) RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    stream_.append(other);
  }

  std::size_t size() const RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stream_.size();
  }

  /// Copy of the merged stream (safe while producers are still pushing).
  SampleStream snapshot() const RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stream_;
  }

  /// Move the merged stream out; the sink is left empty.  Call after the
  /// producer threads have joined.
  SampleStream take() RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    SampleStream out = std::move(stream_);
    stream_ = SampleStream(out.numTags());
    return out;
  }

 private:
  mutable Mutex mutex_;
  SampleStream stream_ RFIPAD_GUARDED_BY(mutex_);
};

}  // namespace rfipad::reader
