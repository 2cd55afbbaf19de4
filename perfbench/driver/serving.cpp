#include "serving.hpp"

#include <algorithm>

#include "core/segmenter.hpp"
#include "llrp/bridge.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using namespace rfipad;

ServingFixture buildServingFixture(std::uint64_t seed, bool wire) {
  sim::ScenarioConfig config;
  config.seed = seed;
  sim::Scenario scen(config);
  const std::uint32_t num_tags = static_cast<std::uint32_t>(scen.array().size());

  ServingFixture fx;
  fx.profile = core::StaticProfile::calibrate(scen.captureStatic(5.0), num_tags);
  fx.online.engine.rows = scen.array().rows();
  fx.online.engine.cols = scen.array().cols();
  for (const auto& t : scen.array().tags())
    fx.online.engine.tag_xy.push_back({t.position.x, t.position.y});
  fx.online.process_interval_s = 0.30;
  fx.online.buffer_horizon_s = 4.0;

  // The same letters, users and RNG forks as bench_sessions.
  const std::vector<char> letters = {'C', 'I', 'L', 'O', 'T', 'V', 'A', 'E'};
  const double hw = 0.75 * scen.padHalfExtent();
  const double hh = 0.95 * scen.padHalfExtent();
  for (std::size_t k = 0; k < letters.size(); ++k) {
    const sim::UserProfile user = sim::defaultUsers()[k % 5];
    sim::TrajectoryBuilder b(user, scen.forkRng(1000 + k));
    b.hold(0.4);
    for (const auto& plan : sim::letterPlans(letters[k], hw, hh)) b.stroke(plan);
    // The trailing hold outlasts OnlineOptions::letter_gap_s, so every
    // letter closes inside its own stream.
    b.retract().hold(2.4);
    const sim::Capture cap = scen.capture(b.build(), user);

    LetterTemplate tpl;
    tpl.letter = letters[k];
    const double t0 = cap.stream.startTime();
    tpl.duration_s = cap.stream.endTime() - t0;
    const std::size_t num_chunks = static_cast<std::size_t>(tpl.duration_s / kChunkS) + 1;
    tpl.chunks.resize(num_chunks);
    for (const reader::TagReport& r : cap.stream.reports()) {
      reader::TagReport shifted = r;
      shifted.time_s = r.time_s - t0;
      const std::size_t c = std::min(static_cast<std::size_t>(shifted.time_s / kChunkS),
                                     num_chunks - 1);
      tpl.chunks[c].push_back(shifted);
    }
    if (wire) {
      tpl.frames.resize(num_chunks);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        reader::SampleStream chunk(num_tags);
        for (const reader::TagReport& r : tpl.chunks[c]) chunk.push(r);
        tpl.chunks[c].clear();
        for (llrp::Bytes& frame : llrp::encodeStream(chunk)) {
          tpl.frames[c].push_back({std::move(frame)});
          const reader::SampleStream decoded = llrp::decodeFrames(tpl.frames[c].back());
          tpl.chunks[c].insert(tpl.chunks[c].end(), decoded.reports().begin(),
                               decoded.reports().end());
        }
      }
    }
    fx.templates.push_back(std::move(tpl));
  }
  return fx;
}

std::vector<StreamStep> planStream(const ServingFixture& fx, std::size_t first,
                                   std::size_t num_chunks, int letters) {
  std::vector<StreamStep> steps;
  std::size_t tpl = first % fx.templates.size();
  double offset = 0.0;
  for (int written = 0;; ++written) {
    if (num_chunks == 0 && written == letters) break;
    const LetterTemplate& t = fx.templates[tpl];
    for (std::uint32_t c = 0; c < t.chunks.size(); ++c) {
      if (num_chunks != 0 && steps.size() == num_chunks) return steps;
      steps.push_back({static_cast<std::uint32_t>(tpl), c, offset});
    }
    offset += t.duration_s + kLetterGapS;
    tpl = (tpl + 1) % fx.templates.size();
  }
  return steps;
}

void shiftedChunk(const ServingFixture& fx, const StreamStep& step,
                  std::vector<reader::TagReport>& out) {
  const auto& src = fx.templates[step.tpl].chunks[step.chunk];
  out.assign(src.begin(), src.end());
  for (reader::TagReport& r : out) r.time_s += step.offset_s;
}

std::vector<ExpectedLetter> referenceReplay(const ServingFixture& fx,
                                            const std::vector<StreamStep>& steps,
                                            ReplayCost& cost, Tracer* tracer) {
  std::vector<ExpectedLetter> out;
  core::OnlineRecognizer rec(fx.profile, fx.online);
  core::SegmentScratch scratch;
  std::uint32_t current = 0;
  rec.onLetter([&](char letter, const std::vector<core::StrokeEvent>&) {
    const StreamStep& step = steps[std::min<std::size_t>(current, steps.size() - 1)];
    out.push_back({letter, fx.templates[step.tpl].letter, current});
  });
  std::vector<reader::TagReport> chunk;
  for (; current < steps.size(); ++current) {
    shiftedChunk(fx, steps[current], chunk);
    Span feed(tracer, "core.online.feed", current);
    const std::int64_t f0 = nowNs();
    for (const reader::TagReport& r : chunk) {
      if (!rec.offer(r)) continue;
      Span due(tracer, "core.online.process_due", current);
      const std::int64_t d0 = nowNs();
      rec.processDue(scratch);
      cost.process_due_ns += nowNs() - d0;
      ++cost.process_due_calls;
    }
    cost.feed_ns += nowNs() - f0;
    cost.samples += chunk.size();
  }
  Span flush(tracer, "core.online.flush", current);
  const std::int64_t f0 = nowNs();
  rec.flushWith(scratch);
  cost.feed_ns += nowNs() - f0;
  return out;
}

void requireLetters(Report& rep, const std::string& who, std::uint32_t& received,
                    std::size_t count) {
  for (; received < count; ++received)
    rep.fail(who + " letter " + std::to_string(received) + ": missing");
}

void fillServingLayers(LayerValues& L, const Tracer* tracer, const ServiceCalls& calls,
                       const core::PumpStats& pump, const ReplayCost& replay,
                       double pump_cpu_ns, double samples) {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Mean span time per call; 0 on the untraced run.
  const auto spanNs = [&](const char* name) {
    const SpanAggregate a = tracer ? tracer->aggregate(name) : SpanAggregate{};
    return per(static_cast<double>(a.total_ns), static_cast<double>(a.count));
  };
  L["service.ingest.ns_per_call"] = spanNs("service.ingest");
  L["service.ingest.reject_ratio"] = per(static_cast<double>(calls.rejects),
                                         static_cast<double>(calls.ingests + calls.rejects));
  L["service.poll.ns_per_call"] = spanNs("service.poll");
  L["service.poll.hit_ratio"] =
      per(static_cast<double>(calls.hits), static_cast<double>(calls.polls));
  L["service.pump.cpu_ns_per_sample"] = per(pump_cpu_ns, samples);
  L["service.pump.busy_pass_ratio"] =
      per(static_cast<double>(pump.busy_passes),
          static_cast<double>(pump.busy_passes + pump.idle_passes));
  L["service.pump.wakeups_per_chunk"] =
      per(static_cast<double>(pump.wakeups), static_cast<double>(calls.ingests));
  L["service.backlog_chunks_p99"] = quantile(calls.backlog, 0.99);
  L["service.attach.us_per_call"] = spanNs("service.attach") * 1e-3;
  L["service.detach.us_per_call"] = spanNs("service.detach") * 1e-3;
  L["core.online.ns_per_sample"] =
      per(static_cast<double>(replay.feed_ns), static_cast<double>(replay.samples));
  L["core.online.process_due.ns_per_call"] =
      per(static_cast<double>(replay.process_due_ns),
          static_cast<double>(replay.process_due_calls));
  L["core.online.process_due.calls"] = static_cast<double>(replay.process_due_calls);
  L["service.overhead_ns_per_sample"] =
      L["service.pump.cpu_ns_per_sample"] - L["core.online.ns_per_sample"];
}

void corruptOneLetter(std::vector<std::vector<ExpectedLetter>>& expected) {
  for (auto& stream : expected) {
    if (stream.empty()) continue;
    stream.front().letter = stream.front().letter == 'Z' ? 'Y' : 'Z';
    return;
  }
}

}  // namespace perfbench
