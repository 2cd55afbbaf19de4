// Clocks, order statistics and the result record shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time of the whole process / of the calling thread, seconds.
double processCpuS();
double threadCpuS();
/// Peak resident set size of the process so far, MiB.
double peakRssMb();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// CPU cost per unit of work, measured per window: mark() at each window
/// boundary with the CPU seconds and units of work so far; median() is
/// the median over windows of CPU ns per unit (steadier than one ratio
/// over a run on a host whose load drifts).
class CpuPerUnit {
 public:
  void mark(double cpu_s, double units);
  double median() const;

 private:
  bool started_ = false;
  double cpu_s_ = 0.0;
  double units_ = 0.0;
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end metrics
/// on an untraced run and the per-layer metrics on a traced one; `record`
/// holds the facts every record states (host, kernel tier, sizes).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Key and JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> failures;  ///< first few, for the log

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  double get(const std::string& name) const;
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, const char* value) { note(key, std::string(value)); }
  void note(const std::string& key, double value);
  /// Counts failed operations; keeps the first few descriptions.
  void fail(const std::string& what, std::uint64_t count = 1);
};

/// `{"k": v, ...}` of a record.
std::string recordJson(const Report& report);
/// The final result line the benchmark contract asks for.
std::string resultJson(const Report& report);

}  // namespace perfbench
