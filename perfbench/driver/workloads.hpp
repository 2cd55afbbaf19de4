// The benchmark's three workloads.  Each builds its inputs from the seed,
// runs for the given time, checks every output against a reference and
// fills a Report: end-to-end metrics, per-layer metrics (meaningful when a
// tracer is attached) and the record facts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Null on the untraced (end-to-end) run.
  Tracer* tracer = nullptr;
  /// Set-up runs at least this often and for at least this long;
  /// setup_s is the median of its runs.
  int setup_repeats = 7;
  double setup_min_s = 1.0;
  /// Self-test: flip one reference letter so the output check must fail.
  bool corrupt_reference = false;
  /// Pad count override for the self-test (0 = the workload's default).
  int pads = 0;
  /// battery: reference outcomes for the default seed ("" = none), and
  /// whether to print the outcomes (how the reference file is made).
  std::string reference_path;
  bool dump_outcomes = false;
};

/// Per-layer values by metric name; a layer a workload does not exercise
/// is absent and reported as 0.
using LayerValues = std::map<std::string, double>;

struct WorkloadResult {
  Report report;
  LayerValues layers;
  /// End-to-end figures too unsteady across seeds or host noise to bound
  /// (see LAYERS.md): stated in every record and reported, from the
  /// untraced half, with the per-layer metrics.
  LayerValues extras;
  /// The headline end-to-end metric the tracing overhead is stated on.
  std::string headline;
};

/// Runs `build` as WorkloadArgs asks and returns its median wall time, s.
template <typename F>
double medianSetupS(const WorkloadArgs& args, F&& build) {
  std::vector<double> times;
  const std::int64_t start = nowNs();
  while (static_cast<int>(times.size()) < args.setup_repeats ||
         static_cast<double>(nowNs() - start) * 1e-9 < args.setup_min_s) {
    const std::int64_t t0 = nowNs();
    build();
    times.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  return median(times);
}

/// trace.accounted_ratio and trace.unaccounted_ns_per_sample over one
/// measured window: `layer_ns` is the time the program layers account for
/// (their spans' self time, plus pump-worker CPU on the serving
/// workloads), `end_to_end_ns` the window's work time taken without the
/// spans (process CPU less the generator's waiting, or threads x wall).
inline void fillAccounting(LayerValues& layers, double layer_ns, double end_to_end_ns,
                           double samples) {
  layers["trace.accounted_ratio"] = end_to_end_ns > 0.0 ? layer_ns / end_to_end_ns : 0.0;
  layers["trace.unaccounted_ns_per_sample"] =
      samples > 0.0 ? (end_to_end_ns - layer_ns) / samples : 0.0;
}

WorkloadResult runServeRealtime(const WorkloadArgs& args);
WorkloadResult runServeCapacity(const WorkloadArgs& args);
WorkloadResult runBattery(const WorkloadArgs& args);

}  // namespace perfbench
