// Regression tests for the harness's documented bit-reproducibility
// contract: sim::run_trials derives one engine per trial index
// (rng::derive_stream(seed, i)), so the result vector must be bit-identical
// regardless of how trials land on worker threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rumor.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"
#include "support/run_trials.hpp"

using namespace rumor;

namespace {

/// A representative trial body: a full synchronous execution, so the test
/// exercises real engine work rather than a toy function.
std::vector<double> run_with_threads(unsigned threads, std::uint64_t trials,
                                     std::uint64_t seed) {
  const auto g = graph::hypercube(6);
  sim::TrialConfig config;
  config.trials = trials;
  config.seed = seed;
  config.threads = threads;
  return sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
    return static_cast<double>(core::run_sync(g, 0, eng).rounds);
  });
}

}  // namespace

TEST(Determinism, RunTrialsBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_with_threads(1, 64, 99);
  const auto t2 = run_with_threads(2, 64, 99);
  const auto t8 = run_with_threads(8, 64, 99);
  ASSERT_EQ(t1.size(), 64u);
  // EXPECT_EQ on the vectors is exact (bitwise) equality for doubles —
  // precisely the contract under test.
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(Determinism, RunTrialsBitIdenticalAcrossRepeats) {
  const auto a = run_with_threads(4, 48, 1234);
  const auto b = run_with_threads(4, 48, 1234);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiffer) {
  const auto a = run_with_threads(2, 64, 1);
  const auto b = run_with_threads(2, 64, 2);
  EXPECT_NE(a, b);
}

TEST(Determinism, TrialValueDependsOnIndexNotSchedule) {
  // The i-th result must equal a serial re-run of trial i alone.
  const auto g = graph::complete(64);
  sim::TrialConfig config;
  config.trials = 32;
  config.seed = 77;
  config.threads = 8;
  const auto parallel = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
    return core::run_async(g, 0, eng).time;
  });
  for (std::uint64_t i : {0ull, 7ull, 31ull}) {
    auto eng = rng::derive_stream(77, i);
    EXPECT_EQ(parallel[i], core::run_async(g, 0, eng).time) << "trial " << i;
  }
}

TEST(Determinism, MeasureSyncStableAcrossThreadCounts) {
  // The one-call measurement wrappers inherit the contract.
  const auto g = graph::star(128);
  sim::TrialConfig c1;
  c1.trials = 50;
  c1.seed = 5;
  c1.threads = 1;
  sim::TrialConfig c8 = c1;
  c8.threads = 8;
  const auto s1 = sim::measure_sync(g, 1, core::Mode::kPushPull, c1);
  const auto s8 = sim::measure_sync(g, 1, core::Mode::kPushPull, c8);
  EXPECT_EQ(s1.samples(), s8.samples());
}
