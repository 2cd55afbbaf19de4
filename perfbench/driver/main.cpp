// perfbench: the repository benchmark (see ../LAYERS.md and BENCHMARK.json).
//
//   perfbench --workload serve_realtime|serve_capacity|battery --seed N
//             --seconds S --trace 0|1 [--reference FILE] [--trace-dir DIR]
//   perfbench --self-test [--reference FILE]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced for half the time and then traced for the
// other half, reports the per-layer metrics from the traced half, the
// tracing overhead (traced vs untraced headline metric) and how much of
// the traced half's work time the layers account for, and writes the spans.
// The last stdout line is the result object; a `# record` line before it
// states the host, kernel tier, build type, seed and workload sizes.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json: every run prints every metric of its kind.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_ns_per_sample", "ns"},
    {"samples_per_s", "1/s"},
    {"letter_latency_p50_ms", "ms"},
};

// The first three are the workload's unbounded end-to-end figures
// (WorkloadResult::extras), taken from the untraced half.
const std::vector<MetricSpec> kPerLayer = {
    {"letters_per_s", "1/s"},
    {"letter_latency_p99_ms", "ms"},
    {"letter_accuracy", "ratio"},
    {"llrp.decode.ns_per_sample", "ns"},
    {"llrp.decode.malformed", "count"},
    {"service.ingest.ns_per_call", "ns"},
    {"service.ingest.reject_ratio", "ratio"},
    {"service.poll.ns_per_call", "ns"},
    {"service.poll.hit_ratio", "ratio"},
    {"service.pump.cpu_ns_per_sample", "ns"},
    {"service.pump.busy_pass_ratio", "ratio"},
    {"service.pump.wakeups_per_chunk", "ratio"},
    {"service.backlog_chunks_p99", "chunks"},
    {"service.attach.us_per_call", "us"},
    {"service.detach.us_per_call", "us"},
    {"service.overhead_ns_per_sample", "ns"},
    {"core.online.ns_per_sample", "ns"},
    {"core.online.process_due.ns_per_call", "ns"},
    {"core.online.process_due.calls", "count"},
    {"gen.busy_ratio", "ratio"},
    {"gen.lag_p99_ms", "ms"},
    {"sim.clone.us_per_trial", "us"},
    {"sim.trajectory.us_per_trial", "us"},
    {"sim.capture.ns_per_sample", "ns"},
    {"core.detect.ns_per_sample", "ns"},
    {"core.letter.us_per_trial", "us"},
    {"battery.pool.busy_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.accounted_ratio", "ratio"},
    {"trace.unaccounted_ns_per_sample", "ns"},
    {"trace.spans", "count"},
};

using RunFn = WorkloadResult (*)(const WorkloadArgs&);

RunFn findWorkload(const std::string& name) {
  if (name == "serve_realtime") return runServeRealtime;
  if (name == "serve_capacity") return runServeCapacity;
  if (name == "battery") return runBattery;
  return nullptr;
}

bool higherIsBetter(const std::string& metric) {
  return metric == "samples_per_s" || metric == "letters_per_s";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_realtime|serve_capacity|battery "
               "--seed N --seconds S --trace 0|1 [--reference FILE] [--trace-dir DIR] "
               "[--dump-outcomes]\n"
               "       perfbench --self-test [--reference FILE]\n");
  return 2;
}

void printFailures(const Report& rep) {
  for (const std::string& f : rep.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  if (rep.failed > rep.failures.size())
    std::fprintf(stderr, "check failed: ... %llu failures in total\n",
                 static_cast<unsigned long long>(rep.failed));
}

/// Traced run: untraced half, traced half, per-layer report.
Report runTraced(RunFn run, WorkloadArgs args, const std::string& workload,
                 const std::string& trace_dir) {
  args.seconds *= 0.5;
  args.setup_repeats = 1;
  args.setup_min_s = 0.0;
  const WorkloadResult plain = run(args);
  Tracer tracer;
  args.tracer = &tracer;
  const WorkloadResult traced = run(args);

  Report rep;
  rep.correct = plain.report.correct && traced.report.correct;
  rep.attempted = plain.report.attempted + traced.report.attempted;
  rep.failed = plain.report.failed + traced.report.failed;
  rep.failures = traced.report.failures;
  rep.record = traced.report.record;

  LayerValues layers = traced.layers;
  for (const auto& [name, value] : plain.extras) layers[name] = value;
  const std::string& h = traced.headline;
  const double u = plain.report.get(h), t = traced.report.get(h);
  layers["trace.overhead_ratio"] = u != 0.0 ? (higherIsBetter(h) ? (u - t) / u : (t - u) / u) : 0.0;
  double spans = 0.0;
  for (const auto& [name, a] : tracer.aggregates()) spans += static_cast<double>(a.count);
  layers["trace.spans"] = spans;
  for (const MetricSpec& m : kPerLayer) {
    const auto it = layers.find(m.name);
    rep.add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
  }
  rep.note("trace_headline", h);
  rep.note("untraced_headline", u);
  rep.note("traced_headline", t);
  rep.note("spans_dropped", static_cast<double>(tracer.droppedSpans()));

  if (!trace_dir.empty()) {
    const std::string path =
        trace_dir + "/" + workload + "-seed" + std::to_string(args.seed) + ".spans.tsv";
    if (tracer.write(path, recordJson(rep)))
      rep.note("spans_file", path);
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  return rep;
}

int selfTest(const std::string& reference) {
  struct Case {
    const char* workload;
    WorkloadArgs args;
  };
  std::vector<Case> cases;
  WorkloadArgs small;
  small.setup_repeats = 1;
  small.setup_min_s = 0.0;
  small.seconds = 2.0;
  small.pads = 32;
  cases.push_back({"serve_realtime", small});
  small.seconds = 1.0;
  cases.push_back({"serve_capacity", small});
  WorkloadArgs battery;
  battery.setup_repeats = 1;
  battery.setup_min_s = 0.0;
  battery.seconds = 0.01;
  battery.reference_path = reference;
  cases.push_back({"battery", battery});

  int bad = 0;
  for (Case& c : cases) {
    for (const bool corrupt : {false, true}) {
      c.args.corrupt_reference = corrupt;
      const WorkloadResult r = findWorkload(c.workload)(c.args);
      const bool ok = r.report.correct == !corrupt;
      std::printf("self-test %-15s %-20s -> check %s (%llu failed of %llu): %s\n", c.workload,
                  corrupt ? "corrupted reference" : "true reference",
                  r.report.correct ? "passes" : "fails",
                  static_cast<unsigned long long>(r.report.failed),
                  static_cast<unsigned long long>(r.report.attempted), ok ? "ok" : "WRONG");
      bad += ok ? 0 : 1;
    }
  }
  std::printf("self-test %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

/// Records host_cores (as nproc counts them), the kernel tier, the build
/// type and the seed.
void noteHost(Report& report, std::uint64_t seed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  report.note("host_cores", cores);
  report.note("kernel_tier", rfipad::simd::tierName(rfipad::simd::activeTier()));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("seed", static_cast<double>(seed));
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold turns off glibc's dynamic one, which rises
  // each time a large block is freed and then serves later session
  // buffers from fragmented arenas: peak RSS then wandered by tens of MiB
  // between runs of one build.  With the threshold fixed, large buffers
  // are mapped and unmapped, so the peak follows the program's live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::string workload, trace_dir;
  WorkloadArgs args;
  bool trace = false, self_test = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--dump-outcomes") {
      args.dump_outcomes = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      trace = v == "1";
    } else if (a == "--reference") {
      args.reference_path = argv[++i];
    } else if (a == "--trace-dir") {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) return selfTest(args.reference_path);
  const RunFn run = findWorkload(workload);
  if (run == nullptr || !have_seed || !have_seconds) return usage();

  Report rep;
  if (trace) {
    rep = runTraced(run, args, workload, trace_dir);
  } else {
    const WorkloadResult result = run(args);
    rep = result.report;
    for (const auto& [name, value] : result.extras) rep.note(name, value);
    std::vector<Metric> ordered;
    for (const MetricSpec& m : kEndToEnd) ordered.push_back({m.name, rep.get(m.name), m.unit});
    rep.metrics = ordered;
  }
  Report head;
  head.note("workload", workload);
  noteHost(head, args.seed);
  head.note("trace", trace ? 1.0 : 0.0);
  rep.record.insert(rep.record.begin(), head.record.begin(), head.record.end());

  printFailures(rep);
  for (const Metric& m : rep.metrics)
    std::printf("%-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("# record %s\n", recordJson(rep).c_str());
  std::printf("%s\n", resultJson(rep).c_str());
  return rep.correct ? 0 : 1;
}
