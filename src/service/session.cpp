#include "service/session.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace rfipad::service {

Session::Session(SessionId id, SessionConfig config)
    : id_(id),
      fault_(std::move(config.fault)),
      fault_salt_(config.fault_salt),
      collect_events_(config.collect_events),
      any_faults_(fault_.anyStreamFaults()),
      recognizer_(std::move(config.profile), config.online) {
  RFIPAD_ASSERT(id_ != kNoSession, "session id 0 is reserved");
  // The capture of `this` is safe: Session is neither copyable nor movable
  // (shards hold it behind a stable pointer).
  recognizer_.onLetter(
      [this](char letter, const std::vector<core::StrokeEvent>& strokes) {
        ++letters_;
        if (!collect_events_) return;
        const double end_s =
            strokes.empty() ? 0.0 : strokes.back().interval.t1;
        if (events_.size() == kMaxRetainedEvents) {
          events_.erase(events_.begin());
          ++events_evicted_;
        }
        events_.push_back({id_, letter, end_s,
                           static_cast<std::uint32_t>(strokes.size())});
      });
}

std::size_t Session::feed(std::span<const reader::TagReport> chunk,
                          core::SegmentScratch& scratch) {
  const std::uint64_t chunk_salt = Rng::deriveSeed(fault_salt_, chunk_index_);
  ++chunk_index_;
  std::span<const reader::TagReport> reports = chunk;
  if (any_faults_) {
    degraded_ = fault_.applyToReports(
        chunk, recognizer_.engine().profile().numTags(), chunk_salt);
    reports = degraded_;
  }
  for (const reader::TagReport& r : reports) {
    if (recognizer_.offer(r)) recognizer_.processDue(scratch);
  }
  return reports.size();
}

void Session::finish(core::SegmentScratch& scratch) {
  recognizer_.flushWith(scratch);
}

std::vector<LetterEvent> Session::takeEvents() {
  std::vector<LetterEvent> out = std::move(events_);
  events_.clear();
  return out;
}

void Session::setFault(fault::FaultPlan plan, std::uint64_t salt) {
  fault_ = std::move(plan);
  fault_salt_ = salt;
  any_faults_ = fault_.anyStreamFaults();
}

}  // namespace rfipad::service
