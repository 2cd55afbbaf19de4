// Streaming segmentation (paper §III-C1 run online).
//
// An online recogniser re-segments its bounded report buffer every
// `process_interval_s`.  Re-running Segmenter::segmentWith over the whole
// buffer frames, calibrates and reduces every retained sample again on
// every pass, although only the newest ~0.3 s changed.  StreamSegmenter
// owns the buffer (a compact ReportBuffer) and keeps, between passes, the
// trace (frame RMS, window std and peak) and a small FrameCarry: each
// tag's unwrap state at the start of the last frame, and the calibrated
// samples of the window_frames − 1 frames before it.  A pass then
// recomputes only the frames and windows that changed, and its trace,
// threshold and intervals are bit-identical to segmentWith() over a
// SampleStream fed the same reports.  What a pass must redo follows from
// traceInto():
//   - the frame grid is anchored at the buffer's first report, so a trim
//     (dropBefore) or a report inserted before the start redoes everything;
//   - the previous last frame is always redone: the frame count rounds up
//     and the last frame absorbs the end of the buffer;
//   - an out-of-order insert at time t redoes every frame from t's frame
//     on; unwrapping is anchored at each tag's first retained sample, so
//     unless t falls in the last frame the pass re-calibrates from the
//     start (still recomputing only the frames from t's on);
//   - every window overlapping a redone frame is redone, pooling the
//     carried samples of the frames before it;
//   - the threshold and the interval logic run over the whole cached trace.
// The carry is bounded by the window, not the buffer: the per-pass planes
// live in the caller's (shard-shared) SegmentScratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/report_buffer.hpp"
#include "core/segmenter.hpp"

namespace rfipad::core {

/// Work done by a StreamSegmenter's passes (counts frames, not time).
struct SegmentWork {
  std::uint64_t passes = 0;
  /// Passes that redid every frame (grid moved, first pass, tag set grew).
  std::uint64_t full_passes = 0;
  /// Frames whose RMS was recomputed, over all passes.
  std::uint64_t frames = 0;
  /// The latest pass: frames recomputed, and whether it redid everything.
  std::size_t last_frames = 0;
  bool last_full = false;
};

class StreamSegmenter {
 public:
  StreamSegmenter(StaticProfile profile, SegmenterOptions options = {});

  /// Buffer one report (ReportBuffer::push, i.e. reader::SampleStream::push
  /// semantics); an out-of-order insert marks the frames from its time on
  /// for the next pass.  Allocation-free once the buffer has reached its
  /// working size.
  reader::PushOutcome push(const reader::TagReport& report);
  /// Drop every report before t (ReportBuffer::dropBefore); moves the frame
  /// grid, so the next pass redoes every frame.
  void dropBefore(double t);

  /// Bring the trace up to date with the buffer and return the stroke
  /// intervals — bit-identical to segmenter().segmentWith() over a
  /// SampleStream given the same push/dropBefore calls.
  /// The pass's planes and the intervals live in `scratch` (valid until its
  /// next use); the pass reads nothing from it before rewriting it, so many
  /// StreamSegmenters can share one.
  const std::vector<Interval>& segmentWith(SegmentScratch& scratch);

  const ReportBuffer& buffer() const { return buffer_; }
  /// The trace as of the latest segmentWith().
  const SegmentationTrace& trace() const { return trace_; }
  const Segmenter& segmenter() const { return segmenter_; }
  const SegmentWork& work() const { return work_; }

 private:
  Segmenter segmenter_;
  ReportBuffer buffer_;
  SegmentationTrace trace_;
  /// The previous pass's hand-over: unwrap seeds at its last frame and the
  /// calibrated samples of the window_frames − 1 frames before it.
  FrameCarry carry_;
  /// Grid the cached frames were computed on (0 frames: nothing cached).
  double grid_t0_ = 0.0;
  std::size_t num_frames_ = 0;
  std::size_t num_tags_ = 0;
  /// Earliest out-of-order insert since the last pass.
  double reordered_from_ = std::numeric_limits<double>::infinity();
  /// A trim happened since the last pass.  The start time alone cannot
  /// tell: an emptied buffer may refill from exactly its old start.
  bool trimmed_ = false;
  SegmentWork work_;
};

}  // namespace rfipad::core
