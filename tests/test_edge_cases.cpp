// Edge-case tests: the smallest legal inputs and boundary configurations of
// every public entry point — the places production users trip first.
#include <gtest/gtest.h>

#include "core/rumor.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"
#include "support/coupling_push.hpp"
#include "support/informing_forest.hpp"
#include "support/run_trials.hpp"

using namespace rumor;

// --- Minimal graphs ------------------------------------------------------------

TEST(EdgeCases, TwoNodeGraphEverywhere) {
  const auto g = graph::path(2);
  auto eng = rng::derive_stream(1500, 0);
  EXPECT_TRUE(core::run_sync(g, 0, eng).completed);
  EXPECT_TRUE(core::run_async(g, 0, eng).completed);
  EXPECT_TRUE(core::run_aux(g, 0, eng).completed);
  EXPECT_TRUE(core::run_pull_coupling(g, 0, eng).completed);
  EXPECT_TRUE(core::run_push_coupling(g, 0, eng).completed);
  EXPECT_TRUE(core::run_block_coupling(g, 0, eng).completed);
  EXPECT_TRUE(core::run_sync_with_forest(g, 0, eng).result.completed);
  EXPECT_TRUE(core::run_async_with_forest(g, 0, eng).result.completed);
}

TEST(EdgeCases, SourceIsLastNode) {
  const auto g = graph::cycle(17);
  auto eng = rng::derive_stream(1500, 1);
  const auto r = core::run_sync(g, 16, eng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.informed_round[16], 0u);
}

TEST(EdgeCases, IsolatedNodeInEngineDoesNotCrash) {
  // Engines must tolerate isolated nodes (they just never complete).
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto g = std::move(b).build("isolated");
  auto eng = rng::derive_stream(1500, 2);
  core::SyncOptions sopts;
  sopts.max_ticks = 20;
  EXPECT_FALSE(core::run_sync(g, 0, eng, sopts).completed);
  core::AsyncOptions aopts;
  aopts.max_ticks = 100;
  EXPECT_FALSE(core::run_async(g, 0, eng, aopts).completed);
}

TEST(EdgeCases, SingleTrialMonteCarlo) {
  sim::TrialConfig config;
  config.trials = 1;
  config.seed = 4;
  const auto sample = sim::measure_sync(graph::complete(8), 0, core::Mode::kPushPull, config);
  EXPECT_EQ(sample.size(), 1u);
  EXPECT_DOUBLE_EQ(sample.mean(), sample.median());
  EXPECT_DOUBLE_EQ(sample.quantile(0.0), sample.quantile(1.0));
}

TEST(EdgeCases, MeasureThrowsOnDisconnectedGraph) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = std::move(b).build("disc");
  sim::TrialConfig config;
  config.trials = 4;
  config.seed = 5;
  config.threads = 2;  // exception must propagate out of the worker pool
  // The engines' default caps are enormous; give the trial body a small one
  // by going through the lambda API instead.
  EXPECT_THROW(
      (void)sim::run_trials(config,
                            [&](std::uint64_t, rng::Engine& eng) -> double {
                              core::SyncOptions opts;
                              opts.max_ticks = 10;
                              const auto r = core::run_sync(g, 0, eng, opts);
                              if (!r.completed) throw std::runtime_error("incomplete");
                              return static_cast<double>(r.rounds);
                            }),
      std::runtime_error);
}

TEST(EdgeCases, BlockCouplingOnTinyStar) {
  // n = 3 star: block capacity floor(sqrt(3)) = 1.
  const auto g = graph::star(3);
  auto eng = rng::derive_stream(1500, 3);
  const auto stats = core::run_block_coupling(g, 1, eng);
  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.subset_invariant_held);
}

TEST(EdgeCases, QuantileExtremes) {
  sim::SpreadingTimeSample s({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.hp_time(1.0), 1.0);
}

TEST(EdgeCases, MessageLossZeroMatchesCleanRun) {
  // loss = 0.0 must take the exact same code path (no extra RNG draws).
  const auto g = graph::hypercube(5);
  auto e1 = rng::derive_stream(1500, 4);
  auto e2 = rng::derive_stream(1500, 4);
  core::SyncOptions clean;
  core::SyncOptions zero_loss;
  zero_loss.message_loss = 0.0;
  const auto a = core::run_sync(g, 0, e1, clean);
  const auto b = core::run_sync(g, 0, e2, zero_loss);
  EXPECT_EQ(a.informed_round, b.informed_round);
}

TEST(EdgeCases, ExtraSourceEqualsPrimarySource) {
  const auto g = graph::cycle(8);
  auto eng = rng::derive_stream(1500, 5);
  core::SyncOptions opts;
  opts.extra_sources = {0};  // duplicate of the primary source
  const auto r = core::run_sync(g, 0, eng, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.informed_round[0], 0u);
}

TEST(EdgeCases, CouplingCapsReportIncomplete) {
  const auto g = graph::cycle(64);
  auto eng = rng::derive_stream(1500, 6);
  core::PullCouplingOptions opts;
  opts.max_rounds = 2;  // far too few for a 64-cycle
  const auto run = core::run_pull_coupling(g, 0, eng, opts);
  EXPECT_FALSE(run.completed);
}
