// battery: the offline paper reproduction (Fig. 23 letters x 5 users, NLOS).
//
// Each trial drives the public layer calls itself: TrajectoryBuilder::build
// -> Scenario::capture on a per-trial copy of the calibrated scenario ->
// RecognitionEngine::detectStrokes -> recognizeLetter.  Trial seeds derive
// from (seed, trial index) as in the bench harness, so the outcome of a
// trial does not depend on which thread runs it.  The battery repeats in
// rounds on two threads until the run time is used; every round, and a
// final one-thread round, must reproduce the first round's outcomes, and
// on the default seed those must equal the committed reference.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rfipad;

namespace {

constexpr int kThreads = 2;
constexpr int kUsers = 5;
constexpr std::size_t kTrials = 26 * kUsers;  // Fig. 23: A-Z x each user
constexpr std::uint64_t kDefaultSeed = 1;

struct Setup {
  std::unique_ptr<sim::Scenario> baseline;  // calibrated
  std::unique_ptr<core::RecognitionEngine> engine;
};

Setup buildSetup(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.doppler_probes = false;  // recognition never reads Doppler
  Setup s;
  s.baseline = std::make_unique<sim::Scenario>(config);
  const core::StaticProfile profile = core::StaticProfile::calibrate(
      s.baseline->captureStatic(5.0),
      static_cast<std::uint32_t>(s.baseline->array().size()));
  core::EngineOptions engine;
  engine.rows = s.baseline->array().rows();
  engine.cols = s.baseline->array().cols();
  for (const auto& t : s.baseline->array().tags())
    engine.tag_xy.push_back({t.position.x, t.position.y});
  s.engine = std::make_unique<core::RecognitionEngine>(profile, engine);
  return s;
}

struct Outcome {
  char truth = '?';
  char recognized = '\0';
  int samples = 0;
  int strokes = 0;
  bool operator==(const Outcome&) const = default;
};

std::string formatOutcome(std::size_t i, const Outcome& o) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu %c %c %d %d", i, o.truth,
                o.recognized == '\0' ? '-' : o.recognized, o.samples, o.strokes);
  return buf;
}

Outcome runTrial(const Setup& setup, std::uint64_t base, std::size_t i, Tracer* tracer) {
  Span trial(tracer, "battery.trial", i);
  Outcome out;
  out.truth = static_cast<char>('A' + i / kUsers);
  const sim::UserProfile& user = sim::defaultUsers()[i % kUsers];
  const std::uint64_t trial_seed = Rng::deriveSeed(base, i);

  std::unique_ptr<sim::Scenario> local;
  {
    Span span(tracer, "sim.clone", i);
    local = std::make_unique<sim::Scenario>(*setup.baseline);
    local->reseedForTrial(trial_seed);
  }
  Rng workload(Rng::deriveSeed(trial_seed, 0x774b));
  const double hw = 0.75 * local->padHalfExtent();
  const double hh = 0.95 * local->padHalfExtent();
  sim::Trajectory traj;
  {
    Span span(tracer, "sim.trajectory", i);
    sim::TrajectoryBuilder builder(user, workload.fork(workload.engine()()));
    builder.hold(0.4);
    for (const auto& plan : sim::letterPlans(out.truth, hw, hh)) builder.stroke(plan);
    builder.retract().hold(0.3);
    traj = builder.build();
  }
  sim::Capture cap;
  {
    Span span(tracer, "sim.capture", i);
    cap = local->capture(traj, user);
  }
  out.samples = static_cast<int>(cap.stream.size());
  std::vector<core::StrokeEvent> events;
  {
    Span span(tracer, "core.detect", i);
    events = setup.engine->detectStrokes(cap.stream);
  }
  out.strokes = static_cast<int>(events.size());
  {
    Span span(tracer, "core.letter", i);
    out.recognized = setup.engine->recognizeLetter(events);
  }
  return out;
}

/// One battery round on `threads` threads; appends per-trial wall times.
std::vector<Outcome> runRound(const Setup& setup, std::uint64_t base, int threads,
                              Tracer* tracer, std::vector<double>& trial_ms) {
  std::vector<Outcome> out(kTrials);
  std::vector<double> ms(kTrials, 0.0);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < kTrials;) {
      const std::int64_t t0 = nowNs();
      out[i] = runTrial(setup, base, i, tracer);
      ms[i] = static_cast<double>(nowNs() - t0) * 1e-6;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  trial_ms.insert(trial_ms.end(), ms.begin(), ms.end());
  return out;
}

bool readReference(const std::string& path, std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return true;
}

}  // namespace

WorkloadResult runBattery(const WorkloadArgs& args) {
  WorkloadResult out;
  Report& rep = out.report;
  Tracer* tracer = args.tracer;

  Setup setup;
  const double setup_s = medianSetupS(args, [&] { setup = buildSetup(args.seed); });
  const std::uint64_t base = Rng::deriveSeed(args.seed, 0xba7c4);

  std::vector<double> trial_ms, round_letters_per_s, round_samples_per_s, round_cpu_ns;
  std::vector<Outcome> first;
  const std::int64_t t0 = nowNs();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t busy_wall_ns = 0;
  std::uint64_t samples = 0;
  int rounds = 0;
  do {
    std::vector<double> round_ms;
    const double c0 = processCpuS();
    const std::int64_t r0 = nowNs();
    std::vector<Outcome> outcomes = runRound(setup, base, kThreads, tracer, round_ms);
    const std::int64_t r1 = nowNs();
    const double round_cpu_s = processCpuS() - c0;
    busy_wall_ns += r1 - r0;
    std::uint64_t round_samples = 0;
    for (const Outcome& o : outcomes) round_samples += static_cast<std::uint64_t>(o.samples);
    samples += round_samples;
    // Round 0 warms caches and the allocator; it is measured only when it
    // is the only round.
    if (rounds == 1) {
      round_letters_per_s.clear();
      round_samples_per_s.clear();
      round_cpu_ns.clear();
      trial_ms.clear();
    }
    const double round_s = static_cast<double>(r1 - r0) * 1e-9;
    round_letters_per_s.push_back(static_cast<double>(kTrials) / round_s);
    round_samples_per_s.push_back(static_cast<double>(round_samples) / round_s);
    round_cpu_ns.push_back(round_cpu_s * 1e9 / static_cast<double>(round_samples));
    trial_ms.insert(trial_ms.end(), round_ms.begin(), round_ms.end());
    if (rounds == 0) {
      first = std::move(outcomes);
    } else {
      for (std::size_t i = 0; i < kTrials; ++i)
        if (!(outcomes[i] == first[i]))
          rep.fail("round " + std::to_string(rounds) + " differs: " + formatOutcome(i, outcomes[i]));
    }
    ++rounds;
  } while (nowNs() < deadline);
  const double layer_ns = layerSelfNs(tracer);

  // Thread-count independence: one more round on a single thread.
  std::vector<double> unused;
  const std::vector<Outcome> serial = runRound(setup, base, 1, nullptr, unused);
  for (std::size_t i = 0; i < kTrials; ++i)
    if (!(serial[i] == first[i]))
      rep.fail("1-thread outcome differs: " + formatOutcome(i, serial[i]));

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kTrials; ++i) lines.push_back(formatOutcome(i, first[i]));
  const bool checked_reference =
      args.seed == kDefaultSeed && !args.reference_path.empty();
  if (checked_reference) {
    std::vector<std::string> ref;
    if (!readReference(args.reference_path, ref)) {
      rep.fail("cannot read reference " + args.reference_path);
    } else if (ref.size() != lines.size()) {
      rep.fail("reference has " + std::to_string(ref.size()) + " trials");
    } else {
      if (args.corrupt_reference) ref[0].back() = ref[0].back() == '9' ? '8' : '9';
      for (std::size_t i = 0; i < lines.size(); ++i)
        if (ref[i] != lines[i]) rep.fail("reference mismatch: " + lines[i] + " vs " + ref[i]);
    }
  }
  if (args.dump_outcomes)
    for (const std::string& l : lines) std::printf("outcome %s\n", l.c_str());

  std::uint64_t right = 0;
  for (const Outcome& o : first) right += o.recognized == o.truth ? 1 : 0;
  rep.attempted = kTrials * static_cast<std::uint64_t>(rounds + 1);

  const double n = static_cast<double>(std::max<std::uint64_t>(samples, 1));
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", peakRssMb(), "MiB");
  rep.add("cpu_ns_per_sample", median(round_cpu_ns), "ns");
  rep.add("samples_per_s", median(round_samples_per_s), "1/s");
  rep.add("letter_latency_p50_ms", quantile(trial_ms, 0.50), "ms");
  out.extras["letters_per_s"] = median(round_letters_per_s);
  out.extras["letter_latency_p99_ms"] = quantile(trial_ms, 0.99);
  out.extras["letter_accuracy"] = static_cast<double>(right) / static_cast<double>(kTrials);
  out.headline = "samples_per_s";

  rep.note("trials_per_round", static_cast<double>(kTrials));
  rep.note("threads", kThreads);
  rep.note("rounds", rounds);
  rep.note("users", kUsers);
  rep.note("placement", "NLOS");
  rep.note("reference_checked", checked_reference ? "yes" : "no");
  rep.note("latency_samples", static_cast<double>(trial_ms.size()));
  rep.note("samples", static_cast<double>(samples));

  LayerValues& L = out.layers;
  if (tracer != nullptr) {
    const double tr = static_cast<double>(kTrials) * rounds;
    const auto total = [&](const char* name) {
      return static_cast<double>(tracer->aggregate(name).total_ns);
    };
    L["sim.clone.us_per_trial"] = total("sim.clone") * 1e-3 / tr;
    L["sim.trajectory.us_per_trial"] = total("sim.trajectory") * 1e-3 / tr;
    L["sim.capture.ns_per_sample"] = total("sim.capture") / n;
    L["core.detect.ns_per_sample"] = total("core.detect") / n;
    L["core.letter.us_per_trial"] = total("core.letter") * 1e-3 / tr;
    L["battery.pool.busy_ratio"] =
        total("battery.trial") / (kThreads * static_cast<double>(busy_wall_ns));
    fillAccounting(L, layer_ns, kThreads * static_cast<double>(busy_wall_ns), n);
  }
  return out;
}

}  // namespace perfbench
