#include "core/online.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace rfipad::core {

OnlineRecognizer::OnlineRecognizer(StaticProfile profile, OnlineOptions options)
    : engine_(std::move(profile), options.engine),
      options_(options),
      segmentation_(engine_.profile(), options.engine.segmenter) {}

RFIPAD_HOT_PATH
bool OnlineRecognizer::offer(const reader::TagReport& report) {
  if (!std::isfinite(report.time_s) || report.time_s < 0.0 ||
      !std::isfinite(report.phase_rad) || !std::isfinite(report.rssi_dbm)) {
    ++stats_.dropped_invalid;
    return false;
  }
  if (report.tag_index >= engine_.profile().numTags()) {
    ++stats_.dropped_unknown_tag;
    return false;
  }
  // Reports behind the consumed frontier arrived too late to influence an
  // already-emitted stroke; count and drop rather than re-open the window.
  if (report.time_s < consumed_until_) {
    ++stats_.dropped_late;
    return false;
  }
  // A finite but implausibly far-future timestamp (a bit-flipped wire
  // clock) must not drag the watermark forward — that would stall the
  // recogniser clock for the rest of the session.  An isolated jump past
  // the buffer horizon is dropped; a *genuine* clock jump (reader resumed
  // after a long gap) is corroborated by the very next report landing near
  // the same future time, at which point the jump is accepted.
  if (watermark_ > kClockUnset &&
      report.time_s > watermark_ + options_.buffer_horizon_s) {
    if (!future_pending_ ||
        std::abs(report.time_s - future_candidate_) >
            options_.buffer_horizon_s) {
      future_pending_ = true;
      future_candidate_ = report.time_s;
      ++stats_.dropped_future;
      return false;
    }
    future_pending_ = false;  // corroborated: accept the jump below
  } else {
    future_pending_ = false;
  }
  switch (segmentation_.push(report)) {
    case reader::PushOutcome::kDuplicate:
      ++stats_.duplicates;
      return false;
    case reader::PushOutcome::kInvalid:
      ++stats_.dropped_invalid;
      return false;
    case reader::PushOutcome::kReordered:
      ++stats_.reordered;
      ++stats_.accepted;
      break;
    case reader::PushOutcome::kAppended:
      ++stats_.accepted;
      break;
  }
  const double previous_watermark = watermark_;
  watermark_ = std::max(watermark_, report.time_s);
  RFIPAD_INVARIANT(watermark_ >= previous_watermark,
                   "recogniser watermark must never rewind");
  if (watermark_ - last_process_ >= options_.process_interval_s) {
    last_process_ = watermark_;
    process_pending_ = true;
  }
  return process_pending_;
}

void OnlineRecognizer::processDue(SegmentScratch& scratch) {
  if (!process_pending_) return;
  process_pending_ = false;
  process(watermark_, /*flushing=*/false, scratch);
}

void OnlineRecognizer::flushWith(SegmentScratch& scratch) {
  process_pending_ = false;
  const ReportBuffer& buffer = segmentation_.buffer();
  if (!buffer.empty()) {
    process(buffer.endTime(), /*flushing=*/true, scratch);
  }
  maybeEmitLetter(buffer.empty() ? 0.0 : buffer.endTime(), /*flushing=*/true);
}

void OnlineRecognizer::process(double now, bool flushing,
                               SegmentScratch& scratch) {
  const ReportBuffer& buffer = segmentation_.buffer();
  if (buffer.empty()) return;

  const std::vector<Interval>& intervals = segmentation_.segmentWith(scratch);
  for (const Interval& iv : intervals) {
    // Buffer trimming can shift interval boundaries between rounds, so an
    // interval may straddle the consumed frontier; emit only its
    // unconsumed remainder.
    if (iv.t1 <= consumed_until_ + 0.05) continue;  // fully emitted
    const double t0 = std::max(iv.t0, consumed_until_);
    if (iv.t1 - t0 < options_.engine.segmenter.min_stroke_s) {
      consumed_until_ = std::max(consumed_until_, iv.t1);
      continue;
    }
    const bool closed = flushing || (now - iv.t1 >= options_.close_after_s);
    if (!closed) break;  // later intervals are even more recent

    // TagReports are rebuilt for this window only; the buffer keeps the
    // compact reads.
    StrokeEvent ev = engine_.classifyWindow(buffer.slice(t0, iv.t1));
    ev.interval = {t0, iv.t1};
    consumed_until_ = iv.t1;
    if (!ev.observation.valid) continue;
    letter_pending_.push_back(ev);
    if (stroke_cb_) stroke_cb_(ev);
  }

  // The letter-gap clock must consider *all* detected activity (including
  // windows not yet closed), or a slow writer's letter would be cut off
  // between strokes.
  if (!intervals.empty()) {
    last_activity_end_ = std::max(last_activity_end_, intervals.back().t1);
  }
  maybeEmitLetter(now, flushing);

  // Trim the buffer: everything consumed and beyond the horizon can go,
  // but always keep a half-window of context before unconsumed data.
  // dropBefore() advances the buffer's window in amortised O(1).  It moves
  // the frame grid, so the next pass re-segments the whole buffer; the 1 s
  // hysteresis holds that to about one pass in six.
  const double keep_from =
      std::max(consumed_until_ - 0.5, now - options_.buffer_horizon_s);
  if (buffer.startTime() < keep_from - 1.0) {
    segmentation_.dropBefore(keep_from);
  }
}

void OnlineRecognizer::maybeEmitLetter(double now, bool flushing) {
  if (letter_pending_.empty()) return;
  const double last_end =
      std::max(letter_pending_.back().interval.t1, last_activity_end_);
  if (!flushing && now - last_end < options_.letter_gap_s) return;

  const char letter = engine_.recognizeLetter(letter_pending_);
  if (letter_cb_) letter_cb_(letter, letter_pending_);
  letter_pending_.clear();
}

}  // namespace rfipad::core
