// Test support (namespace rumor::dist): distribution checks the tests hold
// samples against — the one-sample KS statistic versus an analytic law,
// and an empirical stochastic-domination check X preceq Y.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "dist/distributions.hpp"

namespace rumor::dist {

/// One-sample KS statistic sup_x |F_n(x) - F(x)| against an analytic law
/// with a `cdf(double)` member. The supremum over each step's left and
/// right limits is taken, as the textbook statistic requires.
template <class Dist>
[[nodiscard]] double ks_statistic_analytic(const Ecdf& ecdf, const Dist& d) {
  const auto& xs = ecdf.sorted();
  const double n = static_cast<double>(xs.size());
  double sup = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = d.cdf(xs[i]);
    const double lo = static_cast<double>(i) / n;        // F_n just below x_i
    const double hi = static_cast<double>(i + 1) / n;    // F_n at x_i
    sup = std::max(sup, std::max(std::abs(hi - f), std::abs(f - lo)));
  }
  return sup;
}

/// Result of an empirical stochastic-domination check of X preceq Y.
struct DominationCheck {
  /// sup_t max(0, F_Y(t) - F_X(t)): how much Y's CDF exceeds X's anywhere.
  /// X preceq Y requires F_X >= F_Y pointwise, so for true domination this
  /// is 0 up to sampling noise (~sqrt(1/n)).
  double max_violation = 0.0;
  /// The argument t where the worst violation occurs.
  double at = 0.0;
};

/// Empirically checks X preceq Y (X stochastically smaller) from samples.
[[nodiscard]] DominationCheck check_domination(const std::vector<double>& x_samples,
                                               const std::vector<double>& y_samples);

}  // namespace rumor::dist
