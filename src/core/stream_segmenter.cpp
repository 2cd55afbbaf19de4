#include "core/stream_segmenter.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace rfipad::core {

namespace {

/// A clock jump can ask one pass for thousands of empty frames; give that
/// storage back once a full pass needs far less, so a session's footprint
/// tracks its buffer rather than its worst pass.
void releaseSlack(std::vector<double>& v, std::size_t need) {
  if (v.capacity() > 4 * need + 4096) std::vector<double>().swap(v);
}

}  // namespace

StreamSegmenter::StreamSegmenter(StaticProfile profile, SegmenterOptions options)
    : segmenter_(std::move(profile), options) {}

RFIPAD_HOT_PATH
reader::PushOutcome StreamSegmenter::push(const reader::TagReport& report) {
  const reader::PushOutcome outcome = buffer_.push(report);
  if (outcome == reader::PushOutcome::kReordered)
    reordered_from_ = std::min(reordered_from_, report.time_s);
  return outcome;
}

void StreamSegmenter::dropBefore(double t) {
  const std::size_t before = buffer_.size();
  buffer_.dropBefore(t);
  trimmed_ = trimmed_ || buffer_.size() != before;
}

const std::vector<Interval>& StreamSegmenter::segmentWith(
    SegmentScratch& scratch) {
  ++work_.passes;
  const double reordered_from = reordered_from_;
  const bool reordered =
      reordered_from != std::numeric_limits<double>::infinity();
  reordered_from_ = std::numeric_limits<double>::infinity();
  const bool trimmed = trimmed_;
  trimmed_ = false;
  if (buffer_.empty()) {
    trace_.frame_times.clear();
    trace_.frame_rms.clear();
    trace_.window_times.clear();
    trace_.window_std.clear();
    trace_.window_peak.clear();
    trace_.threshold_used = 0.0;
    num_frames_ = 0;
    work_.last_frames = 0;
    work_.last_full = false;
    return segmenter_.intervalsFrom(trace_, scratch);
  }

  const double t0 = buffer_.startTime();
  const std::size_t num_frames = segmenter_.numFrames(t0, buffer_.endTime());
  const std::size_t num_tags = buffer_.numTags();
  const std::size_t w =
      static_cast<std::size_t>(segmenter_.options().window_frames);
  // The grid is anchored at the first report: a trim or an insert before
  // the start moves it, and then nothing cached is reusable.
  const bool full = num_frames_ == 0 || trimmed || t0 != grid_t0_ ||
                    num_tags != num_tags_;
  FrameRange range{t0, num_frames, 0, 0};
  if (!full) {
    range.dirty = num_frames_ - 1;
    if (reordered)
      range.dirty = std::min(
          range.dirty, segmenter_.frameOf(reordered_from, t0, num_frames));
    range.first = range.dirty >= w ? range.dirty - w + 1 : 0;
  }
  if (full || carry_.first != range.first || carry_.end != range.dirty) {
    // Nothing usable carried (first pass, moved grid, insert behind the
    // carry): calibrate from each tag's first sample.
    range.first = 0;
    carry_.first = carry_.end = 0;
    carry_.seeds.assign(num_tags, UnwrapSeed{});
  }
  if (full) {
    releaseSlack(trace_.frame_times, num_frames);
    releaseSlack(trace_.frame_rms, num_frames);
    releaseSlack(trace_.window_times, num_frames);
    releaseSlack(trace_.window_std, num_frames);
    releaseSlack(trace_.window_peak, num_frames);
  }

  const std::span<const BufferedRead> reads = buffer_.reads();
  const auto from = std::partition_point(
      reads.begin(), reads.end(), [&](const BufferedRead& r) {
        return segmenter_.frameOf(r.time_s, t0, num_frames) < carry_.end;
      });
  const auto skip = static_cast<std::size_t>(from - reads.begin());
  segmenter_.frameRange(reads.subspan(skip), range, carry_, scratch, trace_);
  segmenter_.windowRange(range, scratch, trace_);
  trace_.threshold_used =
      segmenter_.resolveThreshold(trace_.window_std, scratch.sorted);

  grid_t0_ = t0;
  num_frames_ = num_frames;
  num_tags_ = num_tags;
  work_.full_passes += full ? 1 : 0;
  work_.last_full = full;
  work_.last_frames = num_frames - range.dirty;
  work_.frames += work_.last_frames;
  return segmenter_.intervalsFrom(trace_, scratch);
}

}  // namespace rfipad::core
