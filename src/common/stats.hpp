// Descriptive statistics used by the signal-processing pipeline and the
// evaluation harness: running moments, percentiles/CDFs, RMS (Eq. 11 of the
// paper), and simple smoothing filters.
#pragma once

#include <cstddef>
#include <vector>

namespace rfipad {

/// Welford-style running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n−1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// mean/variance/stddev/rms run on the segmenter's per-frame hot path, so
// the reductions route through the dispatched flat-array kernels
// (common/vkernels.hpp): SIMD where available, and bit-identical across
// tiers by the kernels' fixed-order virtual-lane contract.  The pointer
// overloads let flat (SoA) callers reduce a sub-slice without copying.
double mean(const double* xs, std::size_t n);
double mean(const std::vector<double>& xs);
double variance(const double* xs, std::size_t n);
double variance(const std::vector<double>& xs);
double stddev(const double* xs, std::size_t n);
double stddev(const std::vector<double>& xs);
/// Root mean square: sqrt(Σx²/n).  Matches the per-frame RMS in Eq. 11.
double rms(const double* xs, std::size_t n);
double rms(const std::vector<double>& xs);
double median(std::vector<double> xs);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);
/// percentile() without the copy: sorts `xs` in place (callers pass a
/// reused buffer).
double percentileInPlace(std::vector<double>& xs, double p);

/// Empirical CDF evaluated at each of the (sorted) sample points; returns
/// pairs (x, P[X ≤ x]).  Used by the Fig. 21 bench.
std::vector<std::pair<double, double>> empiricalCdf(std::vector<double> xs);

/// Centred moving average with an odd window length; edges use a shrunken
/// window.  Used for smoothing RSS series before trough detection.
std::vector<double> movingAverage(const std::vector<double>& xs,
                                  std::size_t window);

/// Exponential moving average with smoothing factor alpha in (0, 1].
std::vector<double> emaFilter(const std::vector<double>& xs, double alpha);

/// First differences: out[i] = xs[i+1] − xs[i]; size is xs.size()−1.
std::vector<double> diff(const std::vector<double>& xs);

/// Total variation Σ|xs[i+1] − xs[i]| — the "accumulative phase difference"
/// interpretation of Eq. 10 (see DESIGN.md §5).
double totalVariation(const std::vector<double>& xs);

}  // namespace rfipad
