// One pad writing the serving bench's eight letter templates back to back.
//
// The same letters, users, RNG forks, 0.25 s chunking and 0.30 s splice gap
// as bench_sessions, concatenated into one report sequence on one reader
// clock.  Online-recognition tests stream it through a single recogniser.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/online.hpp"
#include "core/static_profile.hpp"
#include "reader/tag_report.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace rfipad::core::testing {

struct LetterStream {
  StaticProfile profile;
  /// Engine geometry for the scenario's array; online knobs at defaults.
  OnlineOptions options;
  std::uint32_t num_tags = 0;
  std::vector<char> letters;
  std::vector<reader::TagReport> reports;
};

/// The serving bench's per-session options: 4 s buffer, 0.30 s passes.
inline OnlineOptions servingOptions(OnlineOptions base) {
  base.process_interval_s = 0.30;
  base.buffer_horizon_s = 4.0;
  return base;
}

/// `rounds` passes over the eight templates, spliced 0.30 s apart.
inline LetterStream buildLetterStream(std::uint64_t seed, int rounds = 1) {
  constexpr double kChunkS = 0.25;
  constexpr double kLetterGapS = 0.30;
  sim::ScenarioConfig config;
  config.seed = seed;
  sim::Scenario scen(config);

  LetterStream out;
  out.num_tags = static_cast<std::uint32_t>(scen.array().size());
  out.profile = StaticProfile::calibrate(scen.captureStatic(5.0), out.num_tags);
  out.options.engine.rows = scen.array().rows();
  out.options.engine.cols = scen.array().cols();
  for (const auto& t : scen.array().tags())
    out.options.engine.tag_xy.push_back({t.position.x, t.position.y});

  const std::vector<char> letters = {'C', 'I', 'L', 'O', 'T', 'V', 'A', 'E'};
  const double hw = 0.75 * scen.padHalfExtent();
  const double hh = 0.95 * scen.padHalfExtent();
  std::vector<std::vector<reader::TagReport>> templates;
  std::vector<double> durations;
  for (std::size_t k = 0; k < letters.size(); ++k) {
    const sim::UserProfile user = sim::defaultUsers()[k % 5];
    sim::TrajectoryBuilder b(user, scen.forkRng(1000 + k));
    b.hold(0.4);
    for (const auto& plan : sim::letterPlans(letters[k], hw, hh)) b.stroke(plan);
    b.retract().hold(2.4);
    const sim::Capture cap = scen.capture(b.build(), user);
    const double t0 = cap.stream.startTime();
    const double duration = cap.stream.endTime() - t0;
    // Chunk order is time order, so chunking only matters for the splice
    // arithmetic: each report is re-zeroed to its template start.
    const std::size_t num_chunks = static_cast<std::size_t>(duration / kChunkS) + 1;
    std::vector<std::vector<reader::TagReport>> chunks(num_chunks);
    for (const reader::TagReport& r : cap.stream.reports()) {
      reader::TagReport shifted = r;
      shifted.time_s = r.time_s - t0;
      const std::size_t c =
          std::min(static_cast<std::size_t>(shifted.time_s / kChunkS), num_chunks - 1);
      chunks[c].push_back(shifted);
    }
    std::vector<reader::TagReport> flat;
    for (const auto& chunk : chunks) flat.insert(flat.end(), chunk.begin(), chunk.end());
    templates.push_back(std::move(flat));
    durations.push_back(duration);
  }

  double offset = 0.0;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < templates.size(); ++k) {
      for (reader::TagReport r : templates[k]) {
        r.time_s += offset;
        out.reports.push_back(r);
      }
      out.letters.push_back(letters[k]);
      offset += durations[k] + kLetterGapS;
    }
  }
  return out;
}

}  // namespace rfipad::core::testing
