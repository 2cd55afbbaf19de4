// Full-stack live demo: Gen2 MAC → LLRP wire format → Octane-style SDK
// callback → online recogniser → word correction.
//
// A volunteer writes a word over the pad; reports flow through actual
// RO_ACCESS_REPORT frames (as from a Speedway on TCP 5084), the streaming
// recogniser emits strokes/letters as they close, and a small dictionary
// fixes residual letter confusions — the paper's complete deployment story
// including its "succession of letters" future work.
//
// With --faulty the same session runs over a hostile deployment: scheduled
// link outages (ridden out by pumpWithReconnect's capped backoff) and
// corrupted RO_ACCESS_REPORT frames (skipped and counted by the lenient
// decoder) — recognition degrades instead of crashing.
//
//   $ ./examples/online_llrp_demo [WORD] [--faulty]
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/online.hpp"
#include "core/words.hpp"
#include "fault/fault_plan.hpp"
#include "llrp/octane.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

using namespace rfipad;

int main(int argc, char** argv) {
  std::string word = "GATE";
  bool faulty = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faulty") == 0)
      faulty = true;
    else
      word = argv[i];
  }
  for (char& c : word) c = static_cast<char>(std::toupper(c));

  sim::ScenarioConfig config;
  config.seed = 4242;
  sim::Scenario scenario(config);
  const auto& user = sim::defaultUser(2);

  // Calibration phase (through the full LLRP path as well).
  llrp::OctaneEmulator reader(scenario.reader());
  llrp::OctaneClient sdk;
  sdk.connect(reader);
  std::puts("LLRP handshake complete (ADD/ENABLE/START_ROSPEC)");
  sdk.pump(reader, 5.0, reader::emptyScene);
  const auto profile = core::StaticProfile::calibrate(sdk.takeStream(), 25);
  std::puts("calibrated from RO_ACCESS_REPORT frames");

  // Online recogniser fed by the SDK callback.
  core::OnlineOptions opts;
  opts.engine.rows = 5;
  opts.engine.cols = 5;
  for (const auto& t : scenario.array().tags())
    opts.engine.tag_xy.push_back({t.position.x, t.position.y});
  // Hostile mode loses reads in bursts; arm the missing-data recovery
  // pipeline (imputation + confidence weighting + hypothesis decoding).
  if (faulty) opts.engine.recovery = core::RecoveryConfig::full();
  core::OnlineRecognizer live(profile, opts);
  core::SegmentScratch scratch;
  auto feed = [&](const reader::TagReport& r) {
    if (live.offer(r)) live.processDue(scratch);
  };

  std::string letters;
  std::vector<std::vector<core::LetterGrammar::LetterHypothesis>> lattice;
  live.onStroke([](const core::StrokeEvent& ev) {
    std::printf("  [%.1fs] stroke: %-8s (conf %.2f)\n", ev.interval.t1,
                directedStrokeName(ev.observation.stroke).c_str(),
                ev.observation.confidence);
  });
  live.onLetter([&](char c, const std::vector<core::StrokeEvent>& evs) {
    std::printf("  => letter '%c' (%zu strokes)\n", c ? c : '?', evs.size());
    letters.push_back(c ? c : '?');
    lattice.push_back(live.engine().letterHypotheses(evs));
  });
  sdk.onReport(feed);

  // Hostile-deployment mode: flap the link once per letter and corrupt a
  // slice of the report frames in flight.
  fault::FaultPlan plan;
  llrp::PumpStats pump_stats;
  std::uint64_t frame_salt = 0;  // must outlive the frame tap below
  if (faulty) {
    plan.seed = 0xBADF00D;
    plan.frame.truncate_prob = 0.05;
    plan.frame.bit_flip_prob = 0.05;
    std::vector<llrp::OutageWindow> outages;
    const double t0 = scenario.reader().now();
    for (std::size_t i = 0; i < word.size(); ++i) {
      const double start = t0 + 1.7 + 4.5 * static_cast<double>(i);
      outages.push_back({start, start + 0.35});
    }
    reader.setOutages(outages);
    reader.setFrameTap([&](std::vector<llrp::Bytes> frames) {
      return plan.applyToFrames(frames, frame_salt++);
    });
    std::puts("fault injection armed: link outages + frame corruption");
  }

  // The volunteer writes the word letter by letter.
  auto rng = scenario.forkRng(9);
  std::printf("\nwriting \"%s\" in the air...\n", word.c_str());
  for (char letter : word) {
    if (letter < 'A' || letter > 'Z') continue;
    const auto plans = sim::letterPlans(letter, scenario.padHalfExtent(),
                                        0.95 * scenario.padHalfExtent());
    sim::TrajectoryBuilder b(user, rng.fork(static_cast<std::uint64_t>(letter)));
    b.hold(0.5);
    for (const auto& p : plans) b.stroke(p);
    b.retract().hold(1.2);  // the quiet gap that closes the letter
    const auto traj = b.build();
    const auto scene = scenario.sceneFor(traj, user, scenario.reader().now());
    if (faulty) {
      // The resilient path: outages ridden out with capped backoff,
      // mangled frames skipped and counted.
      const auto st =
          sdk.pumpWithReconnect(reader, traj.durationS() + 0.3, scene);
      pump_stats.disconnects += st.disconnects;
      pump_stats.rehandshakes += st.rehandshakes;
      pump_stats.offline_s += st.offline_s;
      pump_stats.decode.merge(st.decode);
    } else {
      for (const llrp::Bytes& frame :
           reader.poll(traj.durationS() + 0.3, scene))
        llrp::decodeFrame(frame, pump_stats.decode, feed);
    }
  }
  live.flushWith(scratch);

  if (faulty) {
    std::printf(
        "\nsurvived: %llu disconnects (%.2fs offline), %llu bad frames, "
        "%llu bad reports\n",
        static_cast<unsigned long long>(pump_stats.disconnects),
        pump_stats.offline_s,
        static_cast<unsigned long long>(pump_stats.decode.frames_malformed),
        static_cast<unsigned long long>(pump_stats.decode.reports_malformed));
    std::printf("recogniser:  %s\n",
                core::formatOnlineStats(live.stats()).c_str());
  }

  // Dictionary correction (paper future work: words).  In faulty mode the
  // word decoder consumes the full top-K letter lattice, so a corrupted
  // letter's runner-up hypotheses still vote.
  const core::WordRecognizer dictionary(
      {"GATE", "HELP", "EXIT", "HELLO", "PHARMACY", "LIBRARY", "RADIOLOGY"});
  const std::string corrected =
      faulty ? dictionary.decode(lattice) : dictionary.bestMatch(letters);
  std::printf("\nraw letters: %s\n", letters.c_str());
  std::printf("dictionary:  %s  (truth %s)\n",
              corrected.empty() ? "(no match)" : corrected.c_str(),
              word.c_str());
  return 0;
}
