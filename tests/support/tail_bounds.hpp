// Test support (namespace rumor::dist): closed-form tail bounds and special
// sums from the analysis toolbox.
//
// These are the "theory oracles" the known-bounds windows and the tests
// compare measurements against: harmonic numbers and coupon-collector
// moments (star-graph laws), Chernoff bounds for binomials (round-level
// concentration), and exact upper tails for the negative binomial and
// Erlang laws that Lemmas 9/10 reduce spreading times to.
#pragma once

#include <cstdint>

namespace rumor::dist {

/// The n-th harmonic number H_n = sum_{i=1}^n 1/i. Exact summation for
/// small n; the Euler-Maclaurin asymptotic ln n + gamma + 1/(2n) - 1/(12n^2)
/// beyond the crossover (the two branches agree to ~1e-12 there).
[[nodiscard]] double harmonic(std::uint64_t n);

/// Expected draws to collect all n coupons: n * H_n.
[[nodiscard]] double coupon_collector_mean(std::uint64_t n);

/// Union-bound tail: Pr[T > n ln n + c n] <= e^{-c} for the coupon
/// collector on n coupons (c >= 0).
[[nodiscard]] double coupon_collector_tail(std::uint64_t n, double c);

/// Chernoff bound Pr[X >= (1 + delta) mu] <= exp(-delta^2 mu / 3) for
/// X ~ Bin(n, p), mu = np, 0 < delta <= 1.
[[nodiscard]] double binomial_upper_tail(std::uint64_t n, double p, double delta);

/// Chernoff bound Pr[X <= (1 - delta) mu] <= exp(-delta^2 mu / 2).
[[nodiscard]] double binomial_lower_tail(std::uint64_t n, double p, double delta);

/// Exact upper tail Pr[NB(k, p) > t] = Pr[Bin(t, p) <= k - 1]; returns 1
/// for t < k (the support starts at k).
[[nodiscard]] double negbin_upper_tail(std::uint64_t k, double p, std::uint64_t t);

/// Exact upper tail Pr[Erlang(k, rate) > t] = sum_{i<k} e^{-rt} (rt)^i / i!.
[[nodiscard]] double erlang_upper_tail(std::uint64_t k, double rate, double t);

/// E[max of k i.i.d. Exponential(rate)] = H_k / rate — the star graph's
/// asynchronous completion law.
[[nodiscard]] double max_of_exponentials_mean(std::uint64_t k, double rate);

}  // namespace rumor::dist
