// Structured command surface of the multi-session serving layer.
//
// A deployment serves many independent pads ("sessions") from one process:
// each session has its own calibration profile, streaming recogniser, fault
// environment and subscription state, and a client drives the service with
// typed commands — attach, detach, configure, subscribe, stats — rather
// than poking at recognisers directly.  Commands are plain value types (a
// std::variant, not strings) so they are trivially testable and could be
// bound to any wire format later.
//
// Determinism contract: a session's emitted strokes/letters are a pure
// function of its own ingest-chunk sequence (and its fault plan + salt).
// Sessions never observe each other — shards share *scratch buffers*, not
// state — so results are bit-identical at any pump thread count as long as
// no backpressure drop occurred (drops are counted, never silent).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "core/metrics.hpp"
#include "core/online.hpp"
#include "core/static_profile.hpp"
#include "fault/fault_plan.hpp"

namespace rfipad::service {

/// Session handle.  Ids are assigned monotonically from 1; 0 is "no
/// session" (and addresses the aggregate in StatsCmd).
using SessionId = std::uint64_t;
inline constexpr SessionId kNoSession = 0;

/// What a full ingest queue does with a new chunk.
enum class OverflowPolicy : std::uint8_t {
  kRejectNew,   ///< refuse the new chunk (caller sees false and may retry)
  kDropOldest,  ///< evict the oldest queued chunk to admit the new one
};

/// Everything one pad needs to be served.
struct SessionConfig {
  /// Calibration of this pad's tag array (sessions may share a profile
  /// value; each recogniser keeps its own copy).
  core::StaticProfile profile;
  core::OnlineOptions online{};
  /// Per-session fault environment applied to every ingest chunk before it
  /// reaches the recogniser.  Default-constructed (no stream faults) the
  /// degradation pass is skipped entirely.
  fault::FaultPlan fault{};
  /// Session fault salt: chunk c is degraded with
  /// Rng::deriveSeed(fault_salt, c), so two sessions sharing one plan
  /// still see independent (but reproducible) fault realisations.
  std::uint64_t fault_salt = 0;
  /// Retain emitted letters for poll(); SubscribeCmd toggles it later.
  bool collect_events = true;
};

/// One recognised letter, as retained for poll().  Times are stream
/// (reader-clock) times — the service never reads a wall clock.
struct LetterEvent {
  SessionId session = kNoSession;
  char letter = '?';
  /// End of the letter's last stroke window on the session's reader clock.
  double stream_time_s = 0.0;
  std::uint32_t strokes = 0;
};

/// Aggregated service counters (per session or service-wide).
struct ServiceStats {
  core::IngestQueueStats queue{};
  core::OnlineStats online{};
  std::uint64_t sessions_attached = 0;  ///< lifetime attach count
  std::uint64_t sessions_active = 0;
  std::uint64_t letters_emitted = 0;
  /// Letter events evicted unpolled (Session::kMaxRetainedEvents).
  std::uint64_t events_evicted = 0;
};

struct AttachCmd {
  SessionConfig config;
};
struct DetachCmd {
  SessionId session = kNoSession;
};
/// Swap a session's fault environment (the recogniser itself is immutable
/// once attached — changing segmentation options mid-stream would make the
/// output depend on *when* the command landed, not just on the data).
struct ConfigureCmd {
  SessionId session = kNoSession;
  fault::FaultPlan fault{};
  std::uint64_t fault_salt = 0;
};
struct SubscribeCmd {
  SessionId session = kNoSession;
  bool enabled = true;
};
/// session == kNoSession → service-wide aggregate.
struct StatsCmd {
  SessionId session = kNoSession;
};

using Command =
    std::variant<AttachCmd, DetachCmd, ConfigureCmd, SubscribeCmd, StatsCmd>;

struct CommandResult {
  bool ok = false;
  std::string error;
  /// AttachCmd: the new session's id.  Other commands echo their target.
  SessionId session = kNoSession;
  /// Filled by StatsCmd (and by DetachCmd with the detached session's final
  /// counters).
  ServiceStats stats{};
};

}  // namespace rfipad::service
