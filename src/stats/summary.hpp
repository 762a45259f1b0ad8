// rumor/stats: numerically stable summary statistics for Monte-Carlo samples.
//
// Spreading-time experiments produce thousands of i.i.d. samples per
// configuration; this module reduces them to the quantities the paper's
// statements are about — expectations (Theorem 2) and high-probability
// quantiles T_q (Theorem 1) — together with uncertainty estimates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace rumor::stats {

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// Welford is used instead of the naive sum-of-squares because spreading
/// times on large graphs can reach 1e6 with sub-unit variance, where the
/// naive form cancels catastrophically.
class RunningMoments {
 public:
  /// Exact serializable state (campaign checkpoints). `m2` is the raw sum
  /// of squared deviations — stored directly rather than recomputed from
  /// variance(), because the round-trip through variance would not be
  /// bit-exact.
  struct State {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;

    /// The checkpoint codec: to_json() renders the state, from_json()
    /// reads it back bit-exactly and throws std::runtime_error("<ctx>: ...")
    /// naming the first key that is missing or out of range.
    [[nodiscard]] json::Json to_json() const;
    [[nodiscard]] static State from_json(const json::Json& o, const std::string& ctx);
  };

  [[nodiscard]] State state() const noexcept { return {count_, mean_, m2_, min_, max_}; }

  /// Restores a snapshot taken with state(); bit-exact.
  void restore(const State& s) noexcept {
    count_ = s.count;
    mean_ = s.mean;
    m2_ = s.m2;
    min_ = s.min;
    max_ = s.max;
  }

  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_ || count_ == 1) min_ = x;
    if (x > max_ || count_ == 1) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator (Chan et al. parallel combination); used to
  /// combine per-thread partial results in the Monte-Carlo harness.
  void merge(const RunningMoments& other) noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical quantile of the ascending `sorted_samples` at probability `q`
/// in [0, 1]; O(1).
///
/// Uses the inverted-CDF (type-1) definition: the smallest sample x such
/// that at least ceil(q * n) samples are <= x. This matches the paper's
/// definition T_q = min{t : Pr[T <= t] >= 1 - q} when called with
/// probability 1 - q.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted_samples, double q);

/// Percentile-bootstrap confidence interval for a statistic of the sample
/// mean. Re-samples `samples` with replacement `resamples` times. An empty
/// sample has no defined mean: all three fields are NaN (the documented
/// empty-state contract, reachable for e.g. a campaign shard that owns zero
/// blocks of a configuration).
struct BootstrapInterval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;
};

[[nodiscard]] BootstrapInterval bootstrap_mean_ci(std::span<const double> samples,
                                                  double confidence, std::size_t resamples,
                                                  std::uint64_t seed);

}  // namespace rumor::stats
