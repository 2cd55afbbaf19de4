#include "core/report_buffer.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace rfipad::core {

namespace {

bool sameRead(const BufferedRead& a, const reader::TagReport& b) {
  return a.tag_index == b.tag_index && a.time_s == b.time_s &&
         a.phase_rad == b.phase_rad && a.rssi_dbm == b.rssi_dbm;
}

BufferedRead toRead(const reader::TagReport& r) {
  return {r.time_s, r.phase_rad, r.rssi_dbm, r.channel_mhz, r.tag_index,
          r.imputed};
}

}  // namespace

RFIPAD_HOT_PATH
reader::PushOutcome ReportBuffer::push(const reader::TagReport& report) {
  if (!std::isfinite(report.time_s)) {
    ++invalid_count_;
    return reader::PushOutcome::kInvalid;
  }
  if (report.tag_index >= num_tags_) num_tags_ = report.tag_index + 1;
  if (empty() || report.time_s >= reads_.back().time_s) {
    // In time order; only an exact re-delivery of the newest read is
    // caught here, as in SampleStream.
    if (!empty() && sameRead(reads_.back(), report)) {
      ++duplicate_count_;
      return reader::PushOutcome::kDuplicate;
    }
    reads_.push_back(toRead(report));
    return reader::PushOutcome::kAppended;
  }
  // Out of order: insert after every live read at or before its time,
  // unless one of the reads at exactly its time is the same read.
  const auto live_begin = reads_.begin() + static_cast<std::ptrdiff_t>(front_);
  const auto it = std::upper_bound(
      live_begin, reads_.end(), report.time_s,
      [](double t, const BufferedRead& r) { return t < r.time_s; });
  for (auto back = it; back != live_begin;) {
    --back;
    if (back->time_s != report.time_s) break;
    if (sameRead(*back, report)) {
      ++duplicate_count_;
      return reader::PushOutcome::kDuplicate;
    }
  }
  ++reorder_count_;
  reads_.insert(it, toRead(report));
  return reader::PushOutcome::kReordered;
}

void ReportBuffer::dropBefore(double t) {
  RFIPAD_ASSERT(!std::isnan(t), "dropBefore bound must not be NaN");
  const auto live_begin = reads_.begin() + static_cast<std::ptrdiff_t>(front_);
  const auto keep = std::lower_bound(
      live_begin, reads_.end(), t,
      [](const BufferedRead& r, double bound) { return r.time_s < bound; });
  front_ = static_cast<std::size_t>(keep - reads_.begin());
  if (front_ == reads_.size()) {
    reads_.clear();
    front_ = 0;
    return;
  }
  // SampleStream's rule: erase the dead prefix once it is half the storage.
  if (front_ >= 64 && front_ * 2 >= reads_.size()) {
    reads_.erase(reads_.begin(),
                 reads_.begin() + static_cast<std::ptrdiff_t>(front_));
    front_ = 0;
  }
}

reader::SampleStream ReportBuffer::slice(double t0, double t1) const {
  RFIPAD_ASSERT(!std::isnan(t0) && !std::isnan(t1),
                "slice bounds must not be NaN");
  reader::SampleStream out(num_tags_);
  if (t1 < t0) return out;
  const std::span<const BufferedRead> live = reads();
  const auto lo = std::lower_bound(
      live.begin(), live.end(), t0,
      [](const BufferedRead& r, double t) { return r.time_s < t; });
  const auto hi = std::lower_bound(
      lo, live.end(), t1,
      [](const BufferedRead& r, double t) { return r.time_s < t; });
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (auto r = lo; r != hi; ++r) {
    reader::TagReport report;
    report.tag_index = r->tag_index;
    report.time_s = r->time_s;
    report.phase_rad = r->phase_rad;
    report.rssi_dbm = r->rssi_dbm;
    report.channel_mhz = r->channel_mhz;
    report.imputed = r->imputed;
    // The reads are time-sorted and no two neighbours are the same read
    // (push() compares each append with its predecessor and each insert
    // with every read at its time), so every push appends.
    const reader::PushOutcome outcome = out.push(report);
    RFIPAD_INVARIANT(outcome == reader::PushOutcome::kAppended,
                     "a buffered window must rebuild in order");
  }
  return out;
}

}  // namespace rfipad::core
