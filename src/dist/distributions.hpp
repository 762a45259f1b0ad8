// rumor/dist: analytic distributions, empirical CDFs, and the two-sample
// Kolmogorov-Smirnov test.
//
// The paper's proofs manipulate a small set of laws — exponentials (Poisson
// clocks), geometrics (per-round success counts), negative binomials and
// Erlangs (sums of the former two) — and repeatedly compare processes in the
// usual stochastic order X preceq Y. This module provides those laws with
// exact pmf/cdf/quantile/moment formulas plus samplers driven by
// rng::Engine, an empirical CDF type, and the two-sample KS statistic and
// test (the batch_sync equality gate). The one-sample analytic KS statistic
// and the empirical domination check that validate the coupling lemmas
// (Lemmas 8, 10, 15) are test oracles: tests/support/dist_checks.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace rumor::dist {

/// Exponential(rate): pdf rate * e^{-rate x} on x >= 0.
class Exponential {
 public:
  explicit Exponential(double rate) : rate_(rate) {}

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double mean() const noexcept { return 1.0 / rate_; }
  [[nodiscard]] double variance() const noexcept { return 1.0 / (rate_ * rate_); }

  [[nodiscard]] double cdf(double x) const noexcept {
    return x <= 0.0 ? 0.0 : -std::expm1(-rate_ * x);
  }
  /// Inverse CDF; quantile(q) = -ln(1-q)/rate for q in [0, 1).
  [[nodiscard]] double quantile(double q) const noexcept {
    return -std::log1p(-q) / rate_;
  }

  template <class Eng>
  [[nodiscard]] double sample(Eng& eng) const noexcept {
    return rng::exponential(eng, rate_);
  }

 private:
  double rate_;
};

/// Geometric(p) on {1, 2, ...}: the number of Bernoulli(p) trials up to and
/// including the first success. pmf(k) = p (1-p)^{k-1}.
class Geometric {
 public:
  explicit Geometric(double p) : p_(p) {}

  [[nodiscard]] double success_probability() const noexcept { return p_; }
  [[nodiscard]] double mean() const noexcept { return 1.0 / p_; }
  [[nodiscard]] double variance() const noexcept { return (1.0 - p_) / (p_ * p_); }

  [[nodiscard]] double pmf(std::uint64_t k) const noexcept {
    if (k < 1) return 0.0;
    return p_ * std::pow(1.0 - p_, static_cast<double>(k - 1));
  }
  /// Pr[X <= k] = 1 - (1-p)^k.
  [[nodiscard]] double cdf(std::uint64_t k) const noexcept {
    if (k < 1) return 0.0;
    return -std::expm1(static_cast<double>(k) * std::log1p(-p_));
  }

  template <class Eng>
  [[nodiscard]] std::uint64_t sample(Eng& eng) const noexcept {
    return rng::geometric(eng, p_);
  }

 private:
  double p_;
};

/// NegativeBinomial(k, p) on {k, k+1, ...}: the number of Bernoulli(p)
/// trials up to and including the k-th success — the sum of k independent
/// Geometric(p) variables. pmf(n) = C(n-1, k-1) p^k (1-p)^{n-k}.
class NegativeBinomial {
 public:
  NegativeBinomial(std::uint64_t k, double p) : k_(k), p_(p) {}

  [[nodiscard]] std::uint64_t successes() const noexcept { return k_; }
  [[nodiscard]] double success_probability() const noexcept { return p_; }
  [[nodiscard]] double mean() const noexcept { return static_cast<double>(k_) / p_; }
  [[nodiscard]] double variance() const noexcept {
    return static_cast<double>(k_) * (1.0 - p_) / (p_ * p_);
  }

  [[nodiscard]] double pmf(std::uint64_t n) const noexcept;
  /// Pr[X <= n] = Pr[Bin(n, p) >= k] (>= k successes within n trials).
  [[nodiscard]] double cdf(std::uint64_t n) const noexcept;

  template <class Eng>
  [[nodiscard]] std::uint64_t sample(Eng& eng) const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < k_; ++i) total += rng::geometric(eng, p_);
    return total;
  }

 private:
  std::uint64_t k_;
  double p_;
};

/// Erlang(k, rate): the sum of k independent Exponential(rate) variables.
class Erlang {
 public:
  Erlang(std::uint64_t k, double rate) : k_(k), rate_(rate) {}

  [[nodiscard]] std::uint64_t shape() const noexcept { return k_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double mean() const noexcept { return static_cast<double>(k_) / rate_; }
  [[nodiscard]] double variance() const noexcept {
    return static_cast<double>(k_) / (rate_ * rate_);
  }

  /// Regularized lower incomplete gamma P(k, rate*x); stable for k >= 500.
  [[nodiscard]] double cdf(double x) const noexcept;

  template <class Eng>
  [[nodiscard]] double sample(Eng& eng) const noexcept {
    double total = 0.0;
    for (std::uint64_t i = 0; i < k_; ++i) total += rng::exponential(eng, rate_);
    return total;
  }

 private:
  std::uint64_t k_;
  double rate_;
};

/// Empirical CDF of a sample: F_n(x) = #{i : x_i <= x} / n.
class Ecdf {
 public:
  /// Copies and sorts the sample. Precondition: xs not empty.
  explicit Ecdf(std::vector<double> xs);

  /// F_n(x), a right-continuous step function.
  [[nodiscard]] double operator()(double x) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.
[[nodiscard]] double ks_statistic(const Ecdf& a, const Ecdf& b);

/// Result of the two-sample KS test ks_two_sample_test.
struct KsTest {
  /// D = sup_x |F_a(x) - F_b(x)|.
  double statistic = 0.0;
  /// P(D >= observed) under the null hypothesis that both samples are drawn
  /// from one common (continuous) law. With ties — spreading times are
  /// integers — the test is conservative: the true rejection rate is at
  /// most the nominal alpha.
  double p_value = 1.0;
  /// True when p_value is the exact finite-sample probability (lattice-path
  /// count); false when the asymptotic Kolmogorov series was used.
  bool exact = false;
};

/// Two-sample KS test with p-value: the distributional-equality oracle for
/// engines that reproduce a law without reproducing a bit stream (the
/// batch_sync acceptance gate; see docs/ENGINES.md).
///
/// For small samples (n*m <= 4,000,000) the p-value is exact, computed by
/// the standard O(n*m) lattice-path recursion: P(D < d) is the fraction of
/// the C(n+m, n) orderings whose path (0,0) -> (n,m) keeps
/// |i/n - j/m| below d at every vertex, accumulated column by column with
/// incremental normalization so counts never overflow. Larger samples fall
/// back to the Kolmogorov asymptotic 2 sum_k (-1)^{k-1} exp(-2 k^2 z^2)
/// with z = D sqrt(nm/(n+m)). Precondition: both samples non-empty.
[[nodiscard]] KsTest ks_two_sample_test(const std::vector<double>& a,
                                        const std::vector<double>& b);

/// The equality gate: true iff ks_two_sample_test(a, b).p_value >= alpha.
/// alpha is the false-rejection rate for same-law samples; the default 1e-3
/// keeps a multi-cell CI sweep quiet while still rejecting any systematic
/// distributional drift at realistic sample sizes.
[[nodiscard]] bool ks_gate(const std::vector<double>& a, const std::vector<double>& b,
                           double alpha = 1e-3);

}  // namespace rumor::dist
