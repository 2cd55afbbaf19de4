#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/vkernels.hpp"

namespace rfipad {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(const double* xs, std::size_t n) {
  if (n == 0) return 0.0;
  return vk::sum(xs, n) / static_cast<double>(n);
}

double mean(const std::vector<double>& xs) { return mean(xs.data(), xs.size()); }

double variance(const double* xs, std::size_t n) {
  if (n < 2) return 0.0;
  const double m = mean(xs, n);
  return vk::sumSquaredDev(xs, n, m) / static_cast<double>(n - 1);
}

double variance(const std::vector<double>& xs) {
  return variance(xs.data(), xs.size());
}

double stddev(const double* xs, std::size_t n) {
  return std::sqrt(variance(xs, n));
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double rms(const double* xs, std::size_t n) {
  if (n == 0) return 0.0;
  return std::sqrt(vk::sumSquares(xs, n) / static_cast<double>(n));
}

double rms(const std::vector<double>& xs) { return rms(xs.data(), xs.size()); }

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  return percentileInPlace(xs, p);
}

double percentileInPlace(std::vector<double>& xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p outside [0,100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::vector<std::pair<double, double>> empiricalCdf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(xs.size());
  const double n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cdf.emplace_back(xs[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

std::vector<double> movingAverage(const std::vector<double>& xs,
                                  std::size_t window) {
  if (window == 0) throw std::invalid_argument("movingAverage: window == 0");
  if (window % 2 == 0)
    throw std::invalid_argument("movingAverage: window must be odd");
  std::vector<double> out(xs.size());
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(window / 2);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(xs.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min(n - 1, i + half);
    double s = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) s += xs[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = s / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> emaFilter(const std::vector<double>& xs, double alpha) {
  if (alpha <= 0.0 || alpha > 1.0)
    throw std::invalid_argument("emaFilter: alpha outside (0,1]");
  std::vector<double> out;
  out.reserve(xs.size());
  double acc = 0.0;
  bool first = true;
  for (double x : xs) {
    acc = first ? x : alpha * x + (1.0 - alpha) * acc;
    first = false;
    out.push_back(acc);
  }
  return out;
}

std::vector<double> diff(const std::vector<double>& xs) {
  if (xs.size() < 2) return {};
  std::vector<double> out;
  out.reserve(xs.size() - 1);
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) out.push_back(xs[i + 1] - xs[i]);
  return out;
}

double totalVariation(const std::vector<double>& xs) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) s += std::abs(xs[i + 1] - xs[i]);
  return s;
}

}  // namespace rfipad
