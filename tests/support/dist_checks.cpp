#include "support/dist_checks.hpp"

namespace rumor::dist {

DominationCheck check_domination(const std::vector<double>& x_samples,
                                 const std::vector<double>& y_samples) {
  // X preceq Y iff F_X(t) >= F_Y(t) for all t; report the worst positive
  // excess of F_Y over F_X across the merged sample points.
  const Ecdf fx(x_samples);
  const Ecdf fy(y_samples);
  const auto& xs = fx.sorted();
  const auto& ys = fy.sorted();
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(ys.size());
  std::size_t i = 0;
  std::size_t j = 0;
  DominationCheck check;
  while (i < xs.size() || j < ys.size()) {
    const double t = (j >= ys.size() || (i < xs.size() && xs[i] <= ys[j])) ? xs[i] : ys[j];
    while (i < xs.size() && xs[i] <= t) ++i;
    while (j < ys.size() && ys[j] <= t) ++j;
    const double violation = static_cast<double>(j) / ny - static_cast<double>(i) / nx;
    if (violation > check.max_violation) {
      check.max_violation = violation;
      check.at = t;
    }
  }
  return check;
}

}  // namespace rumor::dist
