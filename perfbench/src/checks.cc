#include "checks.h"

#include <cmath>
#include <sstream>

namespace perfbench {

std::string CheckExact(std::span<const double> estimates,
                       std::span<const double> oracle) {
  if (estimates.size() != oracle.size()) {
    std::ostringstream out;
    out << "answer has " << estimates.size() << " values, oracle "
        << oracle.size();
    return out.str();
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    const double diff = std::fabs(estimates[i] - oracle[i]);
    // Written so that a NaN estimate fails too.
    if (!(diff <= kAbsTol + kRelTol * std::fabs(oracle[i]))) {
      std::ostringstream out;
      out.precision(17);
      out << "query " << i << ": answer " << estimates[i] << ", oracle "
          << oracle[i];
      return out.str();
    }
  }
  return "";
}

std::string CheckBoundEncloses(const wavebatch::PenaltyFunction& penalty,
                               std::span<const double> estimates,
                               std::span<const double> exact, double bound) {
  if (estimates.size() != exact.size()) return "answer size mismatch";
  std::vector<double> error(exact.size());
  double scale = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    error[i] = estimates[i] - exact[i];
    scale += std::fabs(exact[i]);
  }
  const double actual = penalty.Apply(error);
  // Rounding slack: the exact reference itself carries up to
  // kAbsTol + kRelTol * |exact| per query (see CheckExact).
  const double slack_error = kAbsTol * exact.size() + kRelTol * scale;
  const double slack = penalty.Apply(std::vector<double>(1, slack_error));
  if (!(actual <= bound * (1.0 + 1e-12) + slack)) {
    std::ostringstream out;
    out.precision(17);
    out << "true penalty " << actual << " exceeds Theorem-1 bound " << bound;
    return out.str();
  }
  return "";
}

}  // namespace perfbench
