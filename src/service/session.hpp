// One attached pad: its streaming recogniser, fault environment and
// pending letter events.  A Session is owned by exactly one shard and is
// only ever touched under that shard's state lock (attach/detach/poll) or
// from the shard's pump pass — it needs no locking of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "service/command.hpp"

namespace rfipad::service {

class Session {
 public:
  Session(SessionId id, SessionConfig config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }

  /// Degrade one ingest chunk per the session's fault plan (chunk-indexed
  /// salt) and feed it to the recogniser, sharing the caller's scratch for
  /// every re-segmentation pass.  Returns the number of reports fed
  /// (post-degradation).
  std::size_t feed(std::span<const reader::TagReport> chunk,
                   core::SegmentScratch& scratch);

  /// End of stream: finalise any pending stroke and letter.
  void finish(core::SegmentScratch& scratch);

  /// Letter events a session retains for its subscriber between polls; a
  /// letter beyond this evicts the oldest retained one.
  static constexpr std::size_t kMaxRetainedEvents = 256;

  /// Move out the retained letter events, oldest first (empty when
  /// subscription is off).
  std::vector<LetterEvent> takeEvents();

  void setFault(fault::FaultPlan plan, std::uint64_t salt);
  void setCollectEvents(bool enabled) { collect_events_ = enabled; }

  const core::OnlineStats& onlineStats() const { return recognizer_.stats(); }
  std::uint64_t lettersEmitted() const { return letters_; }
  /// Events evicted because the subscriber did not poll in time.
  std::uint64_t eventsEvicted() const { return events_evicted_; }

 private:
  SessionId id_;
  fault::FaultPlan fault_;
  std::uint64_t fault_salt_;
  bool collect_events_;
  bool any_faults_;
  std::uint64_t chunk_index_ = 0;
  std::uint64_t letters_ = 0;
  std::uint64_t events_evicted_ = 0;
  core::OnlineRecognizer recognizer_;
  /// At most kMaxRetainedEvents, oldest first.
  std::vector<LetterEvent> events_;
  /// Reused degraded-chunk buffer (steady-state allocation-free feed).
  std::vector<reader::TagReport> degraded_;
};

}  // namespace rfipad::service
