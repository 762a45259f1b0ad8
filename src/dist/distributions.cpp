#include "dist/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rumor::dist {

namespace {

/// log C(n, k) via lgamma; exact enough for the pmf/cdf range we use.
double log_binomial(double n, double k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

}  // namespace

double NegativeBinomial::pmf(std::uint64_t n) const noexcept {
  if (n < k_) return 0.0;
  const double nn = static_cast<double>(n);
  const double kk = static_cast<double>(k_);
  const double log_p = log_binomial(nn - 1.0, kk - 1.0) + kk * std::log(p_) +
                       (nn - kk) * std::log1p(-p_);
  return std::exp(log_p);
}

double NegativeBinomial::cdf(std::uint64_t n) const noexcept {
  if (n < k_) return 0.0;
  // Pr[NB <= n] = Pr[Bin(n, p) >= k] = 1 - sum_{i=0}^{k-1} C(n,i) p^i (1-p)^{n-i}.
  const double nn = static_cast<double>(n);
  double below = 0.0;
  for (std::uint64_t i = 0; i < k_; ++i) {
    const double ii = static_cast<double>(i);
    below += std::exp(log_binomial(nn, ii) + ii * std::log(p_) + (nn - ii) * std::log1p(-p_));
  }
  return std::max(0.0, 1.0 - below);
}

double Erlang::cdf(double x) const noexcept {
  if (x <= 0.0) return 0.0;
  // For integer shape, 1 - cdf = sum_{i=0}^{k-1} e^{-rx} (rx)^i / i!. Each
  // term is computed in log space so that k = 500 neither overflows nor
  // underflows prematurely.
  const double rx = rate_ * x;
  const double log_rx = std::log(rx);
  double tail = 0.0;
  for (std::uint64_t i = 0; i < k_; ++i) {
    const double ii = static_cast<double>(i);
    tail += std::exp(-rx + ii * log_rx - std::lgamma(ii + 1.0));
  }
  return std::clamp(1.0 - tail, 0.0, 1.0);
}

Ecdf::Ecdf(std::vector<double> xs) : sorted_(std::move(xs)) {
  assert(!sorted_.empty() && "Ecdf of an empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double ks_statistic(const Ecdf& a, const Ecdf& b) {
  // Sweep the merged sample points; the sup of |F_a - F_b| is attained just
  // after one of them.
  const auto& xa = a.sorted();
  const auto& xb = b.sorted();
  const double na = static_cast<double>(xa.size());
  const double nb = static_cast<double>(xb.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double sup = 0.0;
  while (i < xa.size() || j < xb.size()) {
    const double x = (j >= xb.size() || (i < xa.size() && xa[i] <= xb[j])) ? xa[i] : xb[j];
    while (i < xa.size() && xa[i] <= x) ++i;
    while (j < xb.size() && xb[j] <= x) ++j;
    sup = std::max(sup, std::abs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  return sup;
}

namespace {

/// Exact P(D < d) for samples of sizes na, nb by the lattice-path
/// recursion: u[j] after column i is the probability that a uniformly
/// random interleaving reaching lattice point (i, j) has stayed strictly
/// inside the band |i/na - j/nb| < d so far. The column weight
/// i / (i + nb) folds the 1 / C(na+nb, na) normalization into the sweep,
/// so every intermediate value stays in [0, 1] — no big-integer counts.
double ks_exact_cdf(double d, std::size_t na, std::size_t nb) {
  const double m = static_cast<double>(na);
  const double n = static_cast<double>(nb);
  // Snap d to the lattice: D takes values k/(na*nb) for integer k, so
  // testing against the half-open midpoint makes P(D < d) immune to the
  // float fuzz in d itself.
  const double q = (0.5 + std::floor(d * m * n - 1e-7)) / (m * n);
  std::vector<double> u(nb + 1);
  for (std::size_t j = 0; j <= nb; ++j) {
    u[j] = static_cast<double>(j) / n > q ? 0.0 : 1.0;
  }
  for (std::size_t i = 1; i <= na; ++i) {
    const double w = static_cast<double>(i) / (static_cast<double>(i) + n);
    const double fi = static_cast<double>(i) / m;
    u[0] = fi > q ? 0.0 : w * u[0];
    for (std::size_t j = 1; j <= nb; ++j) {
      u[j] = std::abs(fi - static_cast<double>(j) / n) > q ? 0.0 : w * u[j] + u[j - 1];
    }
  }
  return u[nb];
}

/// Kolmogorov's limiting tail 2 sum_k (-1)^{k-1} exp(-2 k^2 z^2).
double ks_asymptotic_p(double z) {
  if (z < 0.2) return 1.0;  // the series needs many terms; the answer is 1
  double p = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * static_cast<double>(k) * static_cast<double>(k) * z * z);
    p += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * p, 0.0, 1.0);
}

}  // namespace

KsTest ks_two_sample_test(const std::vector<double>& a, const std::vector<double>& b) {
  assert(!a.empty() && !b.empty() && "ks_two_sample_test needs non-empty samples");
  const Ecdf fa(a);
  const Ecdf fb(b);
  KsTest test;
  test.statistic = ks_statistic(fa, fb);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  test.exact = na * nb <= 4e6;
  if (test.exact) {
    test.p_value = std::clamp(1.0 - ks_exact_cdf(test.statistic, a.size(), b.size()), 0.0, 1.0);
  } else {
    test.p_value = ks_asymptotic_p(test.statistic * std::sqrt(na * nb / (na + nb)));
  }
  return test;
}

bool ks_gate(const std::vector<double>& a, const std::vector<double>& b, double alpha) {
  return ks_two_sample_test(a, b).p_value >= alpha;
}

}  // namespace rumor::dist
