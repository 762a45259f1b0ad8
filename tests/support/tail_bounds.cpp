#include "support/tail_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "dist/distributions.hpp"

namespace rumor::dist {

namespace {

constexpr double kEulerMascheroni = 0.57721566490153286060651209008240243;

/// Direct summation stays cheap and accurate up to this crossover; the
/// asymptotic branch is already ~1e-13 accurate there.
constexpr std::uint64_t kHarmonicCrossover = 1u << 20;

}  // namespace

double harmonic(std::uint64_t n) {
  if (n == 0) return 0.0;
  if (n <= kHarmonicCrossover) {
    // Sum smallest terms first so the accumulator grows monotonically.
    double h = 0.0;
    for (std::uint64_t i = n; i >= 1; --i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  const double x = static_cast<double>(n);
  return std::log(x) + kEulerMascheroni + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x);
}

double coupon_collector_mean(std::uint64_t n) {
  return static_cast<double>(n) * harmonic(n);
}

double coupon_collector_tail(std::uint64_t /*n*/, double c) {
  // Pr[T > n ln n + c n] <= n * (1 - 1/n)^{n ln n + c n} <= e^{-c}.
  return std::exp(-c);
}

double binomial_upper_tail(std::uint64_t n, double p, double delta) {
  const double mu = static_cast<double>(n) * p;
  return std::exp(-delta * delta * mu / 3.0);
}

double binomial_lower_tail(std::uint64_t n, double p, double delta) {
  const double mu = static_cast<double>(n) * p;
  return std::exp(-delta * delta * mu / 2.0);
}

double negbin_upper_tail(std::uint64_t k, double p, std::uint64_t t) {
  if (t < k) return 1.0;
  return std::clamp(1.0 - NegativeBinomial(k, p).cdf(t), 0.0, 1.0);
}

double erlang_upper_tail(std::uint64_t k, double rate, double t) {
  return std::clamp(1.0 - Erlang(k, rate).cdf(t), 0.0, 1.0);
}

double max_of_exponentials_mean(std::uint64_t k, double rate) {
  return harmonic(k) / rate;
}

}  // namespace rumor::dist
