// Inputs and reference outputs shared by the two serving workloads.
//
// Set-up captures the eight letter templates bench_sessions replays, cuts
// each into reader-clock chunks and, for the wire path, pre-encodes every
// chunk as RO_ACCESS_REPORT frames.  A pad's input is a rotation through
// the templates, spliced with a fixed gap; pads that start on the same
// template replay the same stream, so one single-threaded replay through
// a bare OnlineRecognizer gives the reference letters (and the chunk that
// emits each) for all of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/online.hpp"
#include "llrp/buffer.hpp"
#include "reader/tag_report.hpp"
#include "service/session_manager.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr double kChunkS = 0.25;      // chunk span on the reader clock
inline constexpr double kLetterGapS = 0.30;  // splice gap between letters

struct LetterTemplate {
  char letter = '?';
  double duration_s = 0.0;
  /// Reports per chunk, re-zeroed to the template start.  On the wire path
  /// these are the decoded frames, so they carry the wire quantisation.
  std::vector<std::vector<rfipad::reader::TagReport>> chunks;
  /// RO_ACCESS_REPORT frames per chunk (wire path only), each frame on its
  /// own as decodeFrames takes it: frames[chunk][frame] = {that frame}.
  std::vector<std::vector<std::vector<rfipad::llrp::Bytes>>> frames;
};

struct ServingFixture {
  rfipad::core::StaticProfile profile;
  rfipad::core::OnlineOptions online;
  std::vector<LetterTemplate> templates;
};

/// Calibrates a scenario seeded with `seed` and captures the templates.
ServingFixture buildServingFixture(std::uint64_t seed, bool wire);

/// One chunk of a pad's stream: which template chunk, at which offset.
struct StreamStep {
  std::uint32_t tpl = 0;
  std::uint32_t chunk = 0;
  double offset_s = 0.0;
};

/// A pad starting on template `first`: exactly `num_chunks` chunks, or
/// (with num_chunks == 0) every chunk of `letters` whole letters.
std::vector<StreamStep> planStream(const ServingFixture& fx, std::size_t first,
                                   std::size_t num_chunks, int letters);

/// Copies a step's reports into `out`, shifted onto the pad's clock.
void shiftedChunk(const ServingFixture& fx, const StreamStep& step,
                  std::vector<rfipad::reader::TagReport>& out);

struct ExpectedLetter {
  char letter = '?';
  /// The letter written in the template being fed when it was emitted.
  char truth = '?';
  /// Index of the step whose feed emitted it; steps.size() = the flush.
  std::uint32_t chunk = 0;
};

/// Cost of the reference replays (the single-threaded baseline).
struct ReplayCost {
  std::uint64_t samples = 0;
  std::uint64_t process_due_calls = 0;
  std::int64_t process_due_ns = 0;
  /// Time inside offer/processDue/flushWith (excludes building chunks).
  std::int64_t feed_ns = 0;
};

/// Single-threaded replay through a bare OnlineRecognizer using the
/// offer/processDue split the service uses.
std::vector<ExpectedLetter> referenceReplay(const ServingFixture& fx,
                                            const std::vector<StreamStep>& steps,
                                            ReplayCost& cost, Tracer* tracer);

/// Checks letters a session returned against its reference letters, in
/// order: advances `received` and calls on_match(k) for each letter k
/// that matches; a wrong or extra letter is a failure.
template <typename OnMatch>
void checkLetters(Report& rep, const std::string& who,
                  const std::vector<rfipad::service::LetterEvent>& events,
                  const std::vector<ExpectedLetter>& expected, std::uint32_t& received,
                  OnMatch&& on_match) {
  for (const rfipad::service::LetterEvent& ev : events) {
    const std::uint32_t k = received++;
    if (k < expected.size() && expected[k].letter == ev.letter)
      on_match(k);
    else
      rep.fail(who + " letter " + std::to_string(k) + ": got '" + std::string(1, ev.letter) + "'");
  }
}

/// Every reference letter before `count` must have been received.
void requireLetters(Report& rep, const std::string& who, std::uint32_t& received,
                    std::size_t count);

/// The producer's calls into the service, counted for the per-layer ledger.
struct ServiceCalls {
  std::uint64_t ingests = 0;  ///< accepted chunks
  std::uint64_t rejects = 0;  ///< refused by backpressure
  std::uint64_t polls = 0;
  std::uint64_t hits = 0;  ///< polls that returned a letter
  /// Sampled per shard: chunks ingested minus chunks processed.
  std::vector<double> backlog;
};

/// The per-layer metrics both serving workloads report: service calls
/// (per-call times from the spans), pump CPU and stats, and the reference
/// replay's core.online cost.  `samples` are the reports ingested while
/// `pump_cpu_ns` was measured.
void fillServingLayers(LayerValues& layers, const Tracer* tracer, const ServiceCalls& calls,
                       const rfipad::core::PumpStats& pump, const ReplayCost& replay,
                       double pump_cpu_ns, double samples);

/// Self-test hook: changes the first reference letter of the first
/// non-empty stream, so a correct service must now fail the check.
void corruptOneLetter(std::vector<std::vector<ExpectedLetter>>& expected);

}  // namespace perfbench
