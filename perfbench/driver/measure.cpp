#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

double clockS(clockid_t id) {
  std::timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

double processCpuS() { return clockS(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuS() { return clockS(CLOCK_THREAD_CPUTIME_ID); }

double peakRssMb() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss would
  // carry the launching process's peak over fork and exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void CpuPerUnit::mark(double cpu_s, double units) {
  if (started_ && units > units_) values_.push_back((cpu_s - cpu_s_) * 1e9 / (units - units_));
  started_ = true;
  cpu_s_ = cpu_s;
  units_ = units;
}

double CpuPerUnit::median() const { return perfbench::median(values_); }

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0.0;
}

void Report::note(const std::string& key, const std::string& value) {
  record.emplace_back(key, quoted(value));
}

void Report::note(const std::string& key, double value) {
  record.emplace_back(key, number(value));
}

void Report::fail(const std::string& what, std::uint64_t count) {
  failed += count;
  correct = false;
  if (failures.size() < 8) failures.push_back(what);
}

std::string recordJson(const Report& report) {
  std::string out = "{";
  for (std::size_t i = 0; i < report.record.size(); ++i) {
    if (i) out += ", ";
    out += quoted(report.record[i].first) + ": " + report.record[i].second;
  }
  return out + "}";
}

std::string resultJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
