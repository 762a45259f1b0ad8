// Tests for rumor::stats — Welford moments (including parallel merge),
// quantiles against hand-computed values, bootstrap CI coverage, and the
// regression fits used for growth-law estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rng/rng.hpp"
#include "sim/harness.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

namespace stats = rumor::stats;
namespace rng = rumor::rng;

TEST(RunningMoments, EmptyIsZero) {
  stats::RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.stderr_mean(), 0.0);
}

TEST(RunningMoments, HandComputedValues) {
  stats::RunningMoments m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
}

TEST(RunningMoments, StableForLargeOffset) {
  // Catastrophic cancellation check: tiny variance on a huge mean.
  stats::RunningMoments m;
  for (int i = 0; i < 1000; ++i) m.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(m.mean(), 1e9, 1e-3);
  EXPECT_NEAR(m.variance(), 0.25, 0.001);
}

TEST(RunningMoments, MergeMatchesSequential) {
  auto eng = rng::derive_stream(21, 0);
  stats::RunningMoments full;
  stats::RunningMoments a;
  stats::RunningMoments b;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng::exponential(eng, 0.3);
    full.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), full.count());
  EXPECT_NEAR(a.mean(), full.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), full.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), full.min());
  EXPECT_DOUBLE_EQ(a.max(), full.max());
}

TEST(RunningMoments, MergeWithEmpty) {
  stats::RunningMoments a;
  a.add(3.0);
  stats::RunningMoments empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  stats::RunningMoments b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Quantile, Type1Definition) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.26), 20.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.75), 30.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 1.0), 40.0);
}

TEST(Quantile, UnsortedInput) {
  // SpreadingTimeSample sorts what it is given before it reads quantiles.
  const rumor::sim::SpreadingTimeSample sample({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(sample.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(sample.quantile(1.0), 5.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{42.0};
  for (double q : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, q), 42.0);
}

TEST(QuantileSorted, AgreesWithQuantile) {
  // The type-1 quantile counted out directly: the smallest sample x with at
  // least ceil(q * n) samples <= x.
  const std::vector<double> xs{1.0, 2.0, 3.0, 5.0, 8.0, 13.0};
  for (double q : {0.0, 0.1, 0.33, 0.5, 0.8, 1.0}) {
    const double need = std::max(1.0, std::ceil(q * static_cast<double>(xs.size())));
    double expected = xs.back();
    for (const double x : xs) {
      const auto at_most = std::count_if(xs.begin(), xs.end(), [&](double y) { return y <= x; });
      if (static_cast<double>(at_most) >= need) {
        expected = x;
        break;
      }
    }
    EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, q), expected) << q;
  }
}

TEST(Bootstrap, MeanCiCoversTruthForNormalData) {
  auto eng = rng::derive_stream(22, 0);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(rng::exponential(eng, 1.0));  // mean 1
  }
  const auto ci = stats::bootstrap_mean_ci(xs, 0.99, 500, 1);
  EXPECT_LT(ci.lower, 1.0);
  EXPECT_GT(ci.upper, 1.0);
  EXPECT_LT(ci.upper - ci.lower, 0.3);
  EXPECT_NEAR(ci.point, 1.0, 0.1);
}

TEST(FitLinear, ExactLine) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{3.0, 5.0, 7.0, 9.0};  // y = 2x + 1
  const auto fit = stats::fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, ConstantY) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, 4.0, 4.0};
  const auto fit = stats::fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(FitLinear, NoisyDataRSquaredBelowOne) {
  auto eng = rng::derive_stream(23, 0);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 10.0 * (rng::uniform01(eng) - 0.5));
  }
  const auto fit = stats::fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(FitPowerLaw, RecoversExponent) {
  std::vector<double> x;
  std::vector<double> y;
  for (double v : {16.0, 32.0, 64.0, 128.0, 256.0}) {
    x.push_back(v);
    y.push_back(2.5 * std::pow(v, 1.0 / 3.0));  // the Acan gap exponent
  }
  const auto fit = stats::fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 2.5, 1e-9);
}

TEST(FitLogarithmic, RecoversCoefficient) {
  std::vector<double> x;
  std::vector<double> y;
  for (double v : {64.0, 256.0, 1024.0, 4096.0}) {
    x.push_back(v);
    y.push_back(1.7 * std::log(v) + 0.4);  // star-graph async law shape
  }
  const auto fit = stats::fit_logarithmic(x, y);
  EXPECT_NEAR(fit.slope, 1.7, 1e-9);
  EXPECT_NEAR(fit.intercept, 0.4, 1e-9);
}
