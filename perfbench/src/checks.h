#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <span>
#include <string>
#include <vector>

#include "penalty/penalty.h"

namespace perfbench {

/// Exact answers must match the brute-force oracle within
///   |estimate - oracle| <= kAbsTol + kRelTol * |oracle|.
/// The wavelet round trip is exact up to floating-point rounding, which on
/// these cubes stays below 1e-9 of the answer; the absolute floor covers
/// answers near zero.
inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsTol = 1e-6;

/// Empty when every estimate matches its oracle value; otherwise a one-line
/// description of the first mismatch.
std::string CheckExact(std::span<const double> estimates,
                       std::span<const double> oracle);

/// Theorem 1: the true penalty of a progressive answer never exceeds the
/// worst-case bound reported with it. `exact` is the reference answer on
/// the same data version. Empty when the bound encloses the error (within
/// the same rounding slack as CheckExact); otherwise a description.
std::string CheckBoundEncloses(const wavebatch::PenaltyFunction& penalty,
                               std::span<const double> estimates,
                               std::span<const double> exact, double bound);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
