// Deterministic fault injection for the LLRP/reader/recognition pipeline.
//
// Real RFID pads are never as clean as §V's testbed: tags die or detune,
// miss-reads arrive in bursts (channel fading is bursty, not i.i.d. — the
// classic Gilbert–Elliott behaviour), reader links drop, and the TCP byte
// stream a client actually sees can be truncated or bit-flipped.  A
// FaultPlan is a seeded, composable description of such an environment: it
// wraps a clean SampleStream (or a clean LLRP frame vector) and produces
// the degraded version a deployment would have to survive, without ever
// touching the clean path.
//
// Determinism contract: the degraded output is a pure function of
// (plan, input, salt).  All randomness derives statelessly from
// Rng::deriveSeed(plan.seed, salt), so the same plan + salt yields a
// bit-identical degraded stream no matter how many trials ran before it or
// how many worker threads the batch runner uses.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "llrp/bridge.hpp"
#include "reader/sample_stream.hpp"

namespace rfipad::fault {

/// Half-open interval [t0, t1) on the reader clock.
struct TimeWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  bool contains(double t) const { return t >= t0 && t < t1; }
};

/// Tags that never respond (dead IC, torn antenna, fully detuned).
struct TagDeathFault {
  /// Explicit dead tag indices.
  std::vector<std::uint32_t> dead_tags;
  /// Additionally kill this fraction of the array, chosen by the plan seed
  /// (stable across trials — dead hardware stays dead).
  double dead_fraction = 0.0;
};

/// Tags detuned by mounting surface / neighbour coupling: they still
/// answer, but with a shifted phase, attenuated RSS and a higher miss rate.
struct TagDetuneFault {
  std::vector<std::uint32_t> tags;
  double detuned_fraction = 0.0;
  double phase_offset_rad = 0.7;
  double rssi_loss_db = 6.0;
  /// Extra per-read drop probability for detuned tags.
  double extra_miss_prob = 0.3;
};

/// Bursty miss-reads: a two-state Gilbert–Elliott chain stepped once per
/// report.  The stationary loss rate is
///   p_bad/(p_bad+p_good') weighted mix of the two drop probabilities.
struct MissReadFault {
  /// Transition probability good → bad per report.
  double p_good_to_bad = 0.0;
  /// Transition probability bad → good per report.
  double p_bad_to_good = 0.25;
  double drop_prob_good = 0.0;
  double drop_prob_bad = 0.85;
};

/// Sporadic phase-jump glitches (EPC backscatter decoded off a sidelobe,
/// cable flex, hopping transients): the reported phase jumps by up to
/// ±max_jump_rad.
struct PhaseGlitchFault {
  double prob = 0.0;
  double max_jump_rad = 1.5707963267948966;  // π/2
};

/// Transport-layer untidiness: reports delivered out of order, duplicated
/// (retransmission after a hiccup), or carrying jittered timestamps.
struct ReportJitterFault {
  /// Probability a report is swapped with its predecessor in the delivered
  /// order (bounded, adjacent reordering).
  double reorder_prob = 0.0;
  /// Probability a report is delivered twice.
  double duplicate_prob = 0.0;
  /// Gaussian timestamp jitter, seconds (0 = exact clocks).
  double clock_jitter_std_s = 0.0;
};

/// Reader link outages: windows during which every report is lost (client
/// disconnected, reader rebooting, antenna cable yanked).
struct DisconnectFault {
  /// Expected outages per second of capture (Poisson arrivals).
  double rate_hz = 0.0;
  /// Mean outage duration, seconds (exponential).
  double mean_outage_s = 0.4;
};

/// Wire-level corruption of LLRP frames.
struct FrameFault {
  /// Probability a frame is truncated at a random byte.
  double truncate_prob = 0.0;
  /// Probability a frame has bits flipped.
  double bit_flip_prob = 0.0;
  /// Bits flipped per corrupted frame (each at a random position).
  int flips_per_frame = 3;
};

/// Everything a plan did to one stream/frame vector, by cause.
struct FaultStats {
  std::uint64_t input_reports = 0;
  std::uint64_t output_reports = 0;
  std::uint64_t dropped_dead = 0;
  std::uint64_t dropped_detuned = 0;
  std::uint64_t dropped_missread = 0;
  std::uint64_t dropped_disconnect = 0;
  std::uint64_t phase_glitches = 0;
  std::uint64_t detuned_reports = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t time_jittered = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_truncated = 0;
  std::uint64_t frames_bitflipped = 0;
  std::uint64_t outage_windows = 0;
  /// Reports whose decoded timestamp landed outside the capture window
  /// (a flipped FirstSeenUTC bit can claim a read hours in the future —
  /// accepting it would make every downstream time sweep unbounded).
  std::uint64_t dropped_bad_time = 0;
  /// Decoder-side outcome when the plan routed the stream through the wire
  /// format (frame faults enabled).
  llrp::DecodeStats decode{};

  std::uint64_t droppedTotal() const {
    return dropped_dead + dropped_detuned + dropped_missread +
           dropped_disconnect;
  }
  void merge(const FaultStats& other);
};

class FaultPlan {
 public:
  std::uint64_t seed = 0xF4017;
  TagDeathFault death{};
  TagDetuneFault detune{};
  MissReadFault missread{};
  PhaseGlitchFault glitch{};
  ReportJitterFault jitter{};
  DisconnectFault disconnect{};
  FrameFault frame{};
  /// Reports decoded off the wire with a tag index above this are counted
  /// and dropped (a flipped EPC bit must not blow up downstream
  /// allocations).  Defaults to the input stream's tag count.
  std::uint32_t max_tag_index = std::numeric_limits<std::uint32_t>::max();

  bool anyStreamFaults() const;
  bool anyFrameFaults() const;

  /// Dead tag set: the explicit list plus `dead_fraction` of the array
  /// chosen by the plan seed.  Stable across trials (hardware faults are).
  std::vector<std::uint32_t> resolveDeadTags(std::uint32_t numTags) const;
  /// Detuned tag set, disjoint from the dead set.
  std::vector<std::uint32_t> resolveDetunedTags(std::uint32_t numTags) const;

  /// Outage windows covering [t0, t1), derived from (seed, salt).
  std::vector<TimeWindow> outageWindows(double t0, double t1,
                                        std::uint64_t salt = 0) const;

  /// Degrade a report sequence, preserving delivery order effects
  /// (duplicates stay adjacent, reorders swap neighbours).  This is the
  /// feed for streaming consumers (OnlineRecognizer::offer) and the
  /// per-chunk degradation hook of the session serving layer.
  std::vector<reader::TagReport> applyToReports(
      std::span<const reader::TagReport> reports, std::uint32_t numTags,
      std::uint64_t salt = 0, FaultStats* stats = nullptr) const;

  /// Degrade a stream.  When frame faults are configured the degraded
  /// reports additionally take a real wire round trip
  /// (encodeStream → corrupt frames → lenient decodeFrames), so LLRP
  /// decoding robustness is part of the measured pipeline.
  reader::SampleStream apply(const reader::SampleStream& stream,
                             std::uint64_t salt = 0,
                             FaultStats* stats = nullptr) const;

  /// Corrupt LLRP frames (truncation, bit flips) per `frame`.
  std::vector<llrp::Bytes> applyToFrames(const std::vector<llrp::Bytes>& frames,
                                         std::uint64_t salt = 0,
                                         FaultStats* stats = nullptr) const;
};

}  // namespace rfipad::fault
