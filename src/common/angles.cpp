#include "common/angles.hpp"

#include <cmath>

namespace rfipad {

namespace {

/// std::fmod(x, 2π) without the library call for the arguments phase code
/// mostly meets, −2π < x < 4π.  There the remainder is x itself or x − 2π,
/// and x − 2π is exact (Sterbenz: 2π ≤ x ≤ 2·2π), so the result is
/// bit-identical to std::fmod's exact remainder.
double fmodTwoPi(double x) {
  if (x >= 0.0 && x < 2.0 * kTwoPi) return x < kTwoPi ? x : x - kTwoPi;
  if (x < 0.0 && x > -kTwoPi) return x;
  return std::fmod(x, kTwoPi);
}

}  // namespace

double wrapTwoPi(double theta) {
  double r = fmodTwoPi(theta);
  if (r < 0.0) r += kTwoPi;
  return r;
}

double wrapPi(double theta) {
  double r = fmodTwoPi(theta + kPi);
  if (r <= 0.0) r += kTwoPi;
  return r - kPi;
}

double angleDiff(double a, double b) { return wrapPi(a - b); }

void unwrapInPlace(double* phases, std::size_t n) {
  if (n < 2) return;
  PhaseUnwrapper unwrap{phases[0]};
  for (std::size_t i = 1; i < n; ++i) phases[i] = unwrap.next(phases[i]);
}

void unwrapInPlace(std::vector<double>& phases) {
  unwrapInPlace(phases.data(), phases.size());
}

std::vector<double> unwrapped(std::vector<double> phases) {
  unwrapInPlace(phases);
  return phases;
}

double circularMean(const std::vector<double>& phases) {
  if (phases.empty()) return 0.0;
  double s = 0.0;
  double c = 0.0;
  for (double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  return wrapTwoPi(std::atan2(s, c));
}

double circularStddev(const std::vector<double>& phases) {
  if (phases.size() < 2) return 0.0;
  double s = 0.0;
  double c = 0.0;
  for (double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  const double n = static_cast<double>(phases.size());
  const double r = std::sqrt(s * s + c * c) / n;
  // Mardia's circular standard deviation; for small dispersion it converges
  // to the ordinary standard deviation, which is what the paper plots.
  if (r <= 0.0) return std::sqrt(kTwoPi);
  return std::sqrt(-2.0 * std::log(r));
}

}  // namespace rfipad
