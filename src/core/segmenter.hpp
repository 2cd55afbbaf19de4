// Stroke segmentation from continuous phase streams (paper §III-C1).
//
// The stream is cut into non-overlapping 100 ms frames; each frame's
// root-mean-square over all tags' calibrated phases (Eq. 11) feeds a
// sliding 5-frame window, and a window is "active" when the standard
// deviation of its frame RMS values exceeds a threshold (Eq. 12).  Active
// windows merge into stroke intervals; quiet spans are the adjustment
// intervals between strokes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/angles.hpp"
#include "core/static_profile.hpp"
#include "reader/sample_stream.hpp"

namespace rfipad::core {

struct SegmenterOptions {
  /// Frame length, s (paper: 100 ms).
  double frame_s = 0.1;
  /// Frames per decision window (paper: 5 → 0.5 s).
  int window_frames = 5;
  /// std(RMS) activity threshold (Eq. 12).  The paper determines it
  /// empirically; 0.5 rad separates quiet windows (≈0.1–0.35 with no hand
  /// at writing height) from stroke windows (≈0.6–2).  ≤ 0 selects the
  /// adaptive mode: `adaptive_factor` × the 20th percentile of window
  /// stds, floored at `adaptive_floor` — only sensible on long captures
  /// that are mostly quiet.
  double threshold = 0.45;
  double adaptive_factor = 4.0;
  double adaptive_floor = 0.18;
  /// Discard detected intervals shorter than this, s.
  double min_stroke_s = 0.25;
  /// Merge intervals separated by quiet gaps shorter than this, s.
  double merge_gap_s = 0.15;
  /// Hysteresis: also merge across a gap whose window std never falls
  /// below this fraction of the on-threshold — a mid-stroke lull, not an
  /// adjustment interval.
  double off_fraction = 0.65;
  /// After merging, optionally shrink each interval to its high-activity
  /// core: the outermost windows whose std reaches `core_fraction` × the
  /// interval's peak std.  Off by default (see peak_threshold).
  double core_fraction = 0.0;
  /// Spatial-peakiness refinement: shrink each interval to the span of
  /// frames whose *maximum single-tag* RMS reaches this value (radians).
  /// Writing swings the nearest tag's phase by ≥0.5 rad, while far-hand
  /// transitions (approach/retract with the arm raised) only wiggle many
  /// tags slightly — this cleanly separates the writing core from the
  /// skirts.  0 disables.
  double peak_threshold = 0.30;
};

struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
  double duration() const { return t1 - t0; }
};

/// Intermediate series, used by the Fig. 9 bench and for threshold tuning.
struct SegmentationTrace {
  std::vector<double> frame_times;  ///< frame centres
  std::vector<double> frame_rms;    ///< Eq. 11 per frame (sum over tags)
  std::vector<double> window_times; ///< window centres
  std::vector<double> window_std;   ///< std of frame RMS per window
  std::vector<double> window_peak;  ///< max single-tag motion RMS per window
  double threshold_used = 0.0;
};

/// Per-tag unwrap state at a frame boundary.
struct UnwrapSeed {
  PhaseUnwrapper unwrap;
  /// False until the tag has a sample before the boundary.
  bool primed = false;
};

/// The frames one pass covers, on the grid anchored at the stream's first
/// report (t0).
struct FrameRange {
  double t0 = 0.0;
  std::size_t num_frames = 0;
  /// First frame of the pass's planes: every window it recomputes starts
  /// here or later.
  std::size_t first = 0;
  /// First frame whose RMS the pass recomputes (≥ first).  Every window
  /// overlapping it or a later frame is recomputed too, so `first` must be
  /// at most window_frames − 1 frames before it.
  std::size_t dirty = 0;
};

/// What a pass hands the next pass over the same, grown stream (see
/// StreamSegmenter), so that pass re-reads only the frames it redoes: each
/// tag's unwrap state at the start of frame `end`, and the calibrated
/// samples of frames [first, end), which the next pass's windows still
/// pool.  The next pass redoes frame `end` — this pass's last — onward.
struct FrameCarry {
  std::size_t first = 0;
  std::size_t end = 0;
  std::vector<UnwrapSeed> seeds;
  /// Tag-major samples, and their count per (tag, frame): (end − first)
  /// counts per tag.
  std::vector<double> theta;
  std::vector<std::uint32_t> counts;
};

/// Reusable working set for traceInto()/segmentWith(): one pass's samples
/// bucketed by (tag, frame) and calibrated, the bucket bounds, the trace,
/// the interval lists and the percentile buffer.  Every field is fully
/// rewritten per pass, so one scratch can be shared across repeated
/// segmentation rounds — and across co-resident serving sessions on one
/// shard — with zero steady-state allocation and bit-identical results (no
/// state leaks between passes).  A StreamSegmenter keeps its trace and
/// carry itself and uses the scratch for the per-pass planes only.
struct SegmentScratch {
  std::vector<double> theta;
  std::vector<std::size_t> starts;
  std::vector<std::size_t> cursor;
  std::vector<std::uint32_t> frame_of;
  FrameCarry carry;
  SegmentationTrace trace;
  std::vector<Interval> intervals;
  std::vector<Interval> merged;
  std::vector<double> sorted;
};

class Segmenter {
 public:
  Segmenter(StaticProfile profile, SegmenterOptions options = {});

  /// Detected stroke intervals over the stream, in time order.
  std::vector<Interval> segment(const reader::SampleStream& stream) const;
  /// Scratch-reusing variant: identical output to segment(), but all
  /// working buffers (and the returned interval storage) live in `scratch`.
  /// The returned span is valid until the scratch's next use.
  const std::vector<Interval>& segmentWith(const reader::SampleStream& stream,
                                           SegmentScratch& scratch) const;

  /// Full trace (frame RMS + window std) for inspection.
  SegmentationTrace trace(const reader::SampleStream& stream) const;
  /// Scratch-reusing variant of trace(); fills and returns scratch.trace.
  const SegmentationTrace& traceInto(const reader::SampleStream& stream,
                                     SegmentScratch& scratch) const;

  const SegmenterOptions& options() const { return options_; }
  const StaticProfile& profile() const { return profile_; }

 private:
  // Building blocks of traceInto()/segmentWith().  traceInto() runs them
  // over every frame; StreamSegmenter runs them over the frames a pass
  // dirtied, so both share one copy of the frame math.
  friend class StreamSegmenter;

  /// Frames on the grid anchored at a stream's first report: 100 ms frames
  /// up to its last report, at least one.
  std::size_t numFrames(double t0, double t1) const;
  /// Frame of time t on that grid (the last frame absorbs the end).
  std::size_t frameOf(double t, double t0, std::size_t num_frames) const;
  /// Frames helper.  Buckets the pass's samples by (tag, frame) into the
  /// scratch plane — frames [range.first, carry.end) from `carry` (which
  /// must start at range.first and end at or before range.dirty), later
  /// ones from `reads`, the stream from its first read in frame carry.end
  /// on — calibrates the latter continuing from carry.seeds, sizes tr's
  /// frame series to range.num_frames and recomputes frames
  /// [range.dirty, range.num_frames).  Leaves in `carry` what the next
  /// pass over the grown stream needs.  `Read` is reader::TagReport (the
  /// batch path) or BufferedRead (StreamSegmenter's buffer); only its
  /// tag_index, time_s and phase_rad are read.
  template <class Read>
  void frameRange(std::span<const Read> reads, const FrameRange& range,
                  FrameCarry& carry, SegmentScratch& scratch,
                  SegmentationTrace& tr) const;
  /// Windows helper: sizes tr's window series to tr's frames and recomputes
  /// the std, peak and centre of every window overlapping frame
  /// range.dirty or later, from the planes frameRange() left in `scratch`.
  void windowRange(const FrameRange& range, const SegmentScratch& scratch,
                   SegmentationTrace& tr) const;
  /// The Eq. 12 threshold for a window-std series (adaptive mode sorts a
  /// copy in `sort_buffer`).
  double resolveThreshold(const std::vector<double>& window_std,
                          std::vector<double>& sort_buffer) const;
  /// Active windows → merged, refined, length-gated stroke intervals.
  /// Works in scratch.intervals/merged; returns scratch.merged.
  const std::vector<Interval>& intervalsFrom(const SegmentationTrace& tr,
                                             SegmentScratch& scratch) const;

  StaticProfile profile_;
  SegmenterOptions options_;
};

}  // namespace rfipad::core
