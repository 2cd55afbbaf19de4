// An Octane-SDK-flavoured facade over the simulated reader and the LLRP
// wire format: the paper's host software drives an Impinj Speedway through
// exactly this kind of API ("implemented using C# and adopting the LLRP
// protocol... We modify the Octane SDK to enable the phase reporting").
//
//   OctaneEmulator reader(hw);                 // the "Speedway"
//   OctaneClient client;                       // the host SDK
//   client.onReport([&](const TagReport& r) { ... });
//   client.connect(reader);                    // ADD/ENABLE/START_ROSPEC
//   client.pump(reader, seconds, scene);       // RO_ACCESS_REPORTs flow
//
// The emulator can also model an unreliable deployment: scheduled link
// outages (setOutages) drop the connection mid-poll, and a frame tap
// (setFrameTap) lets tests corrupt the byte stream in flight.  The client's
// pumpWithReconnect() survives both with capped exponential backoff and
// lenient decoding.
#pragma once

#include <functional>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "llrp/bridge.hpp"
#include "reader/reader.hpp"

namespace rfipad::llrp {

/// A scheduled link outage [t0, t1) on the reader clock.
struct OutageWindow {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Reader-side protocol endpoint: owns the control-plane state machine
/// (ROSpec install/enable/start) and converts inventory output to
/// RO_ACCESS_REPORT frames.
class OctaneEmulator {
 public:
  using FrameTap = std::function<std::vector<Bytes>(std::vector<Bytes>)>;

  explicit OctaneEmulator(reader::RfidReader& hw) : hw_(hw) {}

  /// Handle one control message; returns the response frame.  Requires a
  /// live link.
  Bytes handleControl(const Bytes& frame);

  /// Run the air protocol for `duration_s` under `scene` and return the
  /// resulting report frames.  Requires a started ROSpec and a live link.
  /// If a scheduled outage begins inside the window, frames up to the
  /// outage are delivered and the link drops (connected() turns false);
  /// the remaining time is *not* consumed — the caller's reconnect loop
  /// advances the clock through the outage.
  std::vector<Bytes> poll(double duration_s, const reader::SceneFn& scene,
                          std::size_t reportsPerMessage = 16);

  /// Schedule link outages on the reader clock (must be disjoint and
  /// ascending).
  void setOutages(std::vector<OutageWindow> outages) {
    outages_ = std::move(outages);
  }
  /// Intercept outgoing report frames (wire-corruption injection for
  /// robustness tests).  The tap sees whole frames and may drop, truncate
  /// or mutate them.  No tap = frames pass through untouched.
  void setFrameTap(FrameTap tap) { frame_tap_ = std::move(tap); }
  /// When true, a link drop also wipes the ROSpec state, forcing the client
  /// to re-run the ADD/ENABLE/START handshake (a reader reboot rather than
  /// a TCP hiccup).  Default false: the session resumes where it left off.
  void setClearRospecOnDisconnect(bool v) { clear_rospec_on_disconnect_ = v; }

  bool connected() const { return connected_; }
  /// Reader clock, seconds.
  double now() const { return hw_.now(); }
  /// Advance the physical world without delivering reports (the client is
  /// away); inventory output during this time is lost.  Works while
  /// disconnected — tags keep backscattering whether or not anyone listens.
  void advance(double duration_s, const reader::SceneFn& scene);
  /// Attempt to re-establish the link.  Succeeds iff the clock is outside
  /// every scheduled outage.
  bool tryReconnect();

  bool installed() const { return installed_; }
  bool enabled() const { return enabled_; }
  bool started() const { return started_; }
  std::uint32_t rospecId() const { return rospec_.rospec_id; }

 private:
  void dropLink();
  /// First outage overlapping [t, ∞), or outages_.size().
  std::size_t outageAfter(double t) const;

  reader::RfidReader& hw_;
  Rospec rospec_{};
  bool installed_ = false;
  bool enabled_ = false;
  bool started_ = false;
  bool connected_ = true;
  bool clear_rospec_on_disconnect_ = false;
  std::vector<OutageWindow> outages_;
  FrameTap frame_tap_;
  std::uint32_t next_message_id_ = 1000;
};

/// Backoff schedule for OctaneClient::pumpWithReconnect.
struct ReconnectPolicy {
  double initial_backoff_s = 0.05;
  double max_backoff_s = 1.6;
  double multiplier = 2.0;
  /// Give up (throw) after this many consecutive failed attempts.
  int max_attempts_per_outage = 16;
  /// Poll granularity; smaller chunks bound how much data one disconnect
  /// can take down with it.
  double poll_chunk_s = 0.25;
};

/// What a resilient pump session went through.
struct PumpStats {
  std::uint64_t disconnects = 0;
  std::uint64_t reconnect_attempts = 0;
  /// Reconnects that had to redo the full ROSpec handshake.
  std::uint64_t rehandshakes = 0;
  /// Reader-clock seconds spent with the link down.
  double offline_s = 0.0;
  /// Lenient-decode outcome: frames seen, reports delivered, and the
  /// malformed frames/reports skipped.
  DecodeStats decode{};
};

/// Host-side SDK facade: performs the LLRP handshake and dispatches tag
/// reports to a callback.
///
/// Thread safety: the accumulated stream and the message-id counter are
/// mutex-guarded, so one client may be fed concurrently from several
/// readers — the multi-antenna deployment shape, one pump thread per
/// Speedway.  (TSan on the pre-lock code flagged exactly this: concurrent
/// pumps raced on `stream_` and its reorder/duplicate counters.)  The
/// report callback is dispatched outside the lock and must be set before
/// pumping starts; each pump call still drives its own emulator — an
/// OctaneEmulator itself is single-threaded, like the reader hardware.
class OctaneClient {
 public:
  using ReportCallback = std::function<void(const reader::TagReport&)>;

  /// Set the per-report callback.  Must not be called while a pump is in
  /// flight (the callback itself is invoked unlocked, possibly from
  /// several pump threads at once — it must be thread-safe if pumps are).
  void onReport(ReportCallback cb) { callback_ = std::move(cb); }

  /// ADD_ROSPEC → ENABLE_ROSPEC → START_ROSPEC.  Throws on a non-success
  /// response.
  void connect(OctaneEmulator& reader) RFIPAD_EXCLUDES(mutex_);

  /// Poll the reader and dispatch every report; also accumulates them into
  /// `stream()` for batch processing.  Strict decode, no reconnects — the
  /// clean path.
  void pump(OctaneEmulator& reader, double duration_s,
            const reader::SceneFn& scene) RFIPAD_EXCLUDES(mutex_);

  /// Pump for `duration_s` of reader time, surviving scheduled outages
  /// (capped exponential backoff, session resume or re-handshake as the
  /// reader demands) and corrupted frames (lenient decode, skip and
  /// count).  Throws only when an outage outlasts the whole backoff
  /// schedule.  On a fault-free reader this delivers exactly what pump()
  /// would.  Requires duration_s >= 0 and a policy with a positive poll
  /// chunk and a multiplier >= 1.
  PumpStats pumpWithReconnect(OctaneEmulator& reader, double duration_s,
                              const reader::SceneFn& scene,
                              const ReconnectPolicy& policy = {})
      RFIPAD_EXCLUDES(mutex_);

  /// The accumulated stream.  The returned reference is only stable while
  /// no pump is in flight; concurrent pumps should use snapshotStream().
  const reader::SampleStream& stream() const RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stream_;
  }
  /// Copy of the accumulated stream, safe against in-flight pumps.
  reader::SampleStream snapshotStream() const RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stream_;
  }
  /// Drain the accumulated stream, leaving an empty one with the same tag
  /// count behind (not a moved-from husk).
  reader::SampleStream takeStream() RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    reader::SampleStream out = std::move(stream_);
    stream_ = reader::SampleStream(out.numTags());
    return out;
  }

 private:
  std::uint32_t nextMessageId() RFIPAD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return next_message_id_++;
  }
  /// Dispatch one decoded report: callback unlocked, stream under lock.
  void deliver(const reader::TagReport& r) RFIPAD_EXCLUDES(mutex_);

  ReportCallback callback_;
  mutable Mutex mutex_;
  reader::SampleStream stream_ RFIPAD_GUARDED_BY(mutex_);
  std::uint32_t next_message_id_ RFIPAD_GUARDED_BY(mutex_) = 1;
};

}  // namespace rfipad::llrp
