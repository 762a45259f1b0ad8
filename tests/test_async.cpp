// Tests for the asynchronous engine — semantics, the equivalence of the
// three Poisson-clock views (Section 2 of the paper), the steps/time
// relation E[time] = E[steps]/n, and the star-graph Theta(log n) law.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "core/async.hpp"
#include "core/spread_probe.hpp"
#include "dist/distributions.hpp"
#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"

using namespace rumor;
using core::AsyncView;
using core::Mode;

namespace {

core::AsyncResult run(const graph::Graph& g, graph::NodeId source, Mode mode, AsyncView view,
                      std::uint64_t stream) {
  auto eng = rng::derive_stream(3030, stream);
  core::AsyncOptions opts;
  opts.mode = mode;
  opts.view = view;
  return core::run_async(g, source, eng, opts);
}

}  // namespace

// Xoshiro256++ from the state {0, 1, 2, ~0} first outputs all ones, so the
// first exponential gap is -log(1) = 0 and the first contact lands at
// now == 0. The source (informed at 0) must still count as informed, so the
// contact informs the other node at once, and the probe calls it useful.
TEST(AsyncEngine, ZeroLengthGapSeesNodesInformedAtTheSameInstant) {
  const auto g = graph::path(2);
  rng::Engine probe_eng(std::array<std::uint64_t, 4>{0, 1, 2, ~0ull});
  ASSERT_EQ(probe_eng.next(), ~0ull);
  rng::Engine eng(std::array<std::uint64_t, 4>{0, 1, 2, ~0ull});
  core::SpreadProbe probe;
  core::AsyncOptions opts;
  opts.mode = Mode::kPushPull;
  opts.view = AsyncView::kGlobalClock;
  opts.probe = &probe;
  const auto r = core::run_async(g, 0, eng, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.time, 0.0);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_EQ(r.informed_time[0], 0.0);
  EXPECT_EQ(r.informed_time[1], 0.0);
  EXPECT_EQ(probe.contacts, 1u);
  EXPECT_EQ(probe.useful(), 1u);
  EXPECT_EQ(probe.wasted(), 0u);
}

TEST(AsyncEngine, TwoNodeGraphCompletes) {
  const auto g = graph::path(2);
  for (AsyncView view :
       {AsyncView::kGlobalClock, AsyncView::kPerNodeClocks, AsyncView::kPerEdgeClocks}) {
    const auto r = run(g, 0, Mode::kPushPull, view, static_cast<std::uint64_t>(view));
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.time, 0.0);
    EXPECT_EQ(r.informed_time[0], 0.0);
    EXPECT_GT(r.informed_time[1], 0.0);
  }
}

TEST(AsyncEngine, InformTimesAreOrderedAndBounded) {
  const auto g = graph::hypercube(6);
  const auto r = run(g, 0, Mode::kPushPull, AsyncView::kGlobalClock, 10);
  ASSERT_TRUE(r.completed);
  double max_time = 0.0;
  for (double t : r.informed_time) {
    EXPECT_NE(t, core::kNeverTime);
    max_time = std::max(max_time, t);
  }
  EXPECT_DOUBLE_EQ(max_time, r.time);
}

TEST(AsyncEngine, DeterministicGivenSeed) {
  const auto g = graph::torus(8);
  const auto a = run(g, 3, Mode::kPushPull, AsyncView::kGlobalClock, 11);
  const auto b = run(g, 3, Mode::kPushPull, AsyncView::kGlobalClock, 11);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.time, b.time);
}

TEST(AsyncEngine, RespectsStepCap) {
  const auto g = graph::path(50);
  auto eng = rng::derive_stream(3030, 12);
  core::AsyncOptions opts;
  opts.max_ticks = 10;
  const auto r = core::run_async(g, 0, eng, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.steps, 10u);
}

TEST(AsyncEngine, DisconnectedGraphHitsCap) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = std::move(b).build("disc");
  auto eng = rng::derive_stream(3030, 13);
  core::AsyncOptions opts;
  opts.max_ticks = 500;
  const auto r = core::run_async(g, 0, eng, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.informed_time[2], core::kNeverTime);
}

TEST(AsyncEngine, TimePerStepIsOneOverN) {
  // The global clock has rate n, so time/steps -> 1/n.
  const auto g = graph::cycle(64);
  double ratio_sum = 0.0;
  int trials = 30;
  for (int i = 0; i < trials; ++i) {
    const auto r = run(g, 0, Mode::kPushPull, AsyncView::kGlobalClock,
                       100 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(r.completed);
    ratio_sum += r.time / static_cast<double>(r.steps);
  }
  EXPECT_NEAR(ratio_sum / trials * 64.0, 1.0, 0.05);
}

// --- Equivalence of the three views (Section 2) -------------------------------
//
// The spreading-time distributions must agree across views; we compare
// Monte-Carlo samples with a two-sample KS test at a loose threshold.

class AsyncViewEquivalence : public ::testing::TestWithParam<std::pair<AsyncView, AsyncView>> {};

TEST_P(AsyncViewEquivalence, SpreadingTimeDistributionsAgree) {
  const auto [view_a, view_b] = GetParam();
  const auto g = graph::hypercube(6);
  sim::TrialConfig config;
  config.trials = 600;
  config.seed = 77;
  const auto a = sim::measure_async(g, 0, Mode::kPushPull, config, view_a);
  config.seed = 78;
  const auto b = sim::measure_async(g, 0, Mode::kPushPull, config, view_b);
  const double ks =
      dist::ks_statistic(dist::Ecdf(a.samples()), dist::Ecdf(b.samples()));
  // Two-sample KS 99.9% critical value for n=m=600 is ~1.95*sqrt(2/600)=0.113.
  EXPECT_LT(ks, 0.113);
}

INSTANTIATE_TEST_SUITE_P(
    Views, AsyncViewEquivalence,
    ::testing::Values(std::pair{AsyncView::kGlobalClock, AsyncView::kPerNodeClocks},
                      std::pair{AsyncView::kGlobalClock, AsyncView::kPerEdgeClocks},
                      std::pair{AsyncView::kPerNodeClocks, AsyncView::kPerEdgeClocks}));

// --- The paper's asynchronous star law (Section 1) ----------------------------

TEST(AsyncStar, IsLogarithmic) {
  // "In the asynchronous model it takes with high probability Theta(log n)
  // time until sufficiently many different Poisson clocks have ticked for
  // all nodes to get informed."
  sim::TrialConfig config;
  config.trials = 200;
  config.seed = 88;
  const auto t256 = sim::measure_async(graph::star(256), 1, Mode::kPushPull, config);
  const auto t4096 = sim::measure_async(graph::star(4096), 1, Mode::kPushPull, config);
  // Growth by a factor ~ log(4096)/log(256) = 1.5, certainly not 16x.
  const double growth = t4096.mean() / t256.mean();
  EXPECT_GT(growth, 1.1);
  EXPECT_LT(growth, 2.5);
  // Absolute scale ~ ln n + ln ln n; allow wide constants.
  EXPECT_GT(t4096.mean(), 0.7 * std::log(4096.0));
  EXPECT_LT(t4096.mean(), 3.0 * std::log(4096.0));
}

TEST(AsyncModes, PushPullFastestOnHypercube) {
  sim::TrialConfig config;
  config.trials = 100;
  config.seed = 89;
  const auto g = graph::hypercube(7);
  const auto push = sim::measure_async(g, 0, Mode::kPush, config);
  const auto pull = sim::measure_async(g, 0, Mode::kPull, config);
  const auto pp = sim::measure_async(g, 0, Mode::kPushPull, config);
  EXPECT_LT(pp.mean(), push.mean());
  EXPECT_LT(pp.mean(), pull.mean());
}

TEST(AsyncModes, PushAndPullSymmetricOnRegularGraphs) {
  // On regular graphs push-a and pull-a are time reversals of each other;
  // their spreading-time distributions coincide.
  sim::TrialConfig config;
  config.trials = 400;
  config.seed = 90;
  const auto g = graph::hypercube(6);
  const auto push = sim::measure_async(g, 0, Mode::kPush, config);
  const auto pull = sim::measure_async(g, 0, Mode::kPull, config);
  const double ks =
      dist::ks_statistic(dist::Ecdf(push.samples()), dist::Ecdf(pull.samples()));
  EXPECT_LT(ks, 0.14);  // 99.9% critical for n=m=400
}
