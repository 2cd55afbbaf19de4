// Phase-angle helpers: wrapping, unwrapping (the paper's "de-periodicity"
// step, §III-A3), and circular statistics.
#pragma once

#include <cstddef>
#include <numbers>
#include <vector>

namespace rfipad {

inline constexpr double kTwoPi = 2.0 * std::numbers::pi;
inline constexpr double kPi = std::numbers::pi;

/// Wrap an angle into [0, 2π).
double wrapTwoPi(double theta);

/// Wrap an angle into (−π, π].
double wrapPi(double theta);

/// Smallest signed difference a−b on the circle, in (−π, π].
double angleDiff(double a, double b);

/// Unwrap a sequence of phases in-place: whenever a successive difference
/// exceeds π in magnitude, a multiple of 2π is added to the remainder so the
/// series becomes continuous.  This is the classic one-dimensional phase
/// unwrapping used by the paper (borrowed from CBID [14]).
void unwrapInPlace(std::vector<double>& phases);

/// Pointer-range variant for flat (structure-of-arrays) series.
void unwrapInPlace(double* phases, std::size_t n);

/// unwrapInPlace() one sample at a time, for series that grow: seed it with
/// the first phase (which unwrapping leaves unchanged), then next() returns
/// each later phase exactly as unwrapInPlace() would write it.
struct PhaseUnwrapper {
  double prev = 0.0;
  double offset = 0.0;

  double next(double raw) {
    const double d = raw - prev;
    if (d > kPi) {
      offset -= kTwoPi;
    } else if (d < -kPi) {
      offset += kTwoPi;
    }
    prev = raw;
    return raw + offset;
  }
};

/// Non-mutating variant of unwrapInPlace.
std::vector<double> unwrapped(std::vector<double> phases);

/// Circular mean of phases in [0, 2π).  Used to estimate a tag's static
/// central phase value θ̃ without being bitten by the 0/2π seam.
double circularMean(const std::vector<double>& phases);

/// Circular standard deviation (dispersion) of phases.  This is the
/// "Deviation bias" b_i the paper measures per tag (Fig. 5).
double circularStddev(const std::vector<double>& phases);

}  // namespace rfipad
