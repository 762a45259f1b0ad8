// Tests for the asynchronous engine — semantics, the equivalence of the
// three Poisson-clock views (Section 2 of the paper), the steps/time
// relation E[time] = E[steps]/n, and the star-graph Theta(log n) law.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/spread_probe.hpp"
#include "dist/distributions.hpp"
#include "dynamics/churn.hpp"
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

// --- The multiplied global clock against the per-tick clock -----------------
//
// run_global_clock multiplies each tick's uniform into a running product and
// takes one log per fold. The oracle below reads the clock directly: it adds
// an Exp(n) gap on every tick. Both must draw the same stream, so steps,
// completion and the inform sequence are equal, and inform times agree up
// to rounding.

namespace {

using graph::NodeId;
using Inform = std::pair<NodeId, NodeId>;  // (informer, target)

struct OracleRun {
  core::AsyncResult result;
  std::vector<Inform> informs;
  double max_idle_gap = 0.0;  ///< longest stretch of time between two informs
};

OracleRun per_tick_oracle(const graph::Graph& g, NodeId source, rng::Engine& eng,
                          const core::AsyncOptions& options) {
  const NodeId n = g.num_nodes();
  OracleRun run;
  std::vector<double>& informed_time = run.result.informed_time;
  informed_time.assign(n, core::kNeverTime);
  informed_time[source] = 0.0;
  NodeId informed_count = 1;
  for (NodeId extra : options.extra_sources) {
    if (informed_time[extra] == core::kNeverTime) {
      informed_time[extra] = 0.0;
      ++informed_count;
    }
  }
  const std::uint64_t cap = options.max_ticks != 0 ? options.max_ticks : core::default_step_cap(n);

  double now = 0.0;
  double idle_gap = 0.0;
  std::uint64_t steps = 0;
  const double rate = static_cast<double>(n);
  dynamics::DynamicGraphView* const view = options.dynamics;
  while (informed_count < n && steps < cap) {
    const double gap = rng::exponential(eng, rate);
    now += gap;
    idle_gap += gap;
    ++steps;
    if (view != nullptr) view->advance_time(now);
    const NodeId v = static_cast<NodeId>(rng::uniform_below(eng, n));
    const std::uint32_t deg = view != nullptr ? view->degree(v) : g.degree(v);
    if (deg == 0) continue;
    const NodeId w = view != nullptr ? view->sample(v, eng) : g.random_neighbor(v, eng);
    if (options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss)) continue;
    const bool v_in = informed_time[v] != core::kNeverTime;
    const bool w_in = informed_time[w] != core::kNeverTime;
    if (v_in == w_in) continue;
    if (options.mode == Mode::kPush && !v_in) continue;
    if (options.mode == Mode::kPull && !w_in) continue;
    const NodeId target = v_in ? w : v;
    informed_time[target] = now;
    ++informed_count;
    run.informs.emplace_back(v_in ? v : w, target);
    run.max_idle_gap = std::max(run.max_idle_gap, idle_gap);
    idle_gap = 0.0;
  }
  run.max_idle_gap = std::max(run.max_idle_gap, idle_gap);
  run.result.time = now;
  run.result.steps = steps;
  run.result.completed = (informed_count == n);
  return run;
}

/// A Markov churn overlay; each run builds its own view from it.
dynamics::DynamicsSpec churn_spec() {
  dynamics::DynamicsSpec spec;
  spec.churn.model = dynamics::ChurnModel::kMarkov;
  spec.churn.birth = 0.3;
  spec.churn.death = 0.2;
  spec.churn.period = 1;
  spec.seed = 17;
  return spec;
}

struct ClockCase {
  std::string name;
  graph::Graph graph;
  core::AsyncOptions options;
  bool churn = false;
  bool hits_cap = false;
  /// Some stretch between informs has -sum log u > 1074 ln 2: without
  /// folds the product of its uniforms would underflow to 0.
  bool crosses_underflow = false;
};

std::vector<ClockCase> clock_cases() {
  auto with = [](Mode mode, double loss = 0.0) {
    core::AsyncOptions o;
    o.mode = mode;
    o.message_loss = loss;
    return o;
  };
  auto rr_eng = rng::derive_stream(4040, 0);
  std::vector<ClockCase> cases;
  for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
    cases.push_back({"hypercube(8)/mode" + std::to_string(static_cast<int>(mode)),
                     graph::hypercube(8), with(mode)});
  }
  cases.push_back({"random_regular/loss", graph::random_regular(256, 4, rr_eng),
                   with(Mode::kPushPull, 0.1)});
  cases.push_back({"star/pull", graph::star(256), with(Mode::kPull)});
  cases.push_back({"double_star(1024)", graph::double_star(1024), with(Mode::kPushPull)});
  cases.back().crosses_underflow = true;
  cases.push_back({"double_star(1024)/push", graph::double_star(1024), with(Mode::kPush)});
  cases.back().crosses_underflow = true;
  auto sources = with(Mode::kPushPull);
  sources.extra_sources = {63, 30, 30};
  cases.push_back({"path/extra_sources", graph::path(64), sources});
  auto capped = with(Mode::kPushPull, 0.1);
  capped.max_ticks = 3000;
  cases.push_back({"cycle/cap", graph::cycle(128), capped});
  cases.back().hits_cap = true;
  cases.push_back({"torus/churn", graph::torus(8), with(Mode::kPushPull, 0.1)});
  cases.back().churn = true;
  return cases;
}

}  // namespace

TEST(AsyncGlobalClock, MatchesPerTickClockUpToRounding) {
  for (const ClockCase& c : clock_cases()) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      SCOPED_TRACE(c.name + " stream " + std::to_string(stream));
      std::optional<dynamics::DynamicGraphView> oracle_view, hook_view, plain_view;
      core::AsyncOptions oracle_opts = c.options, hook_opts = c.options, plain_opts = c.options;
      if (c.churn) {
        oracle_opts.dynamics = &oracle_view.emplace(c.graph, churn_spec(), nullptr, 5, stream);
        hook_opts.dynamics = &hook_view.emplace(c.graph, churn_spec(), nullptr, 5, stream);
        plain_opts.dynamics = &plain_view.emplace(c.graph, churn_spec(), nullptr, 5, stream);
      }
      auto oracle_eng = rng::derive_stream(4041, stream);
      auto hook_eng = oracle_eng;
      auto plain_eng = oracle_eng;
      const OracleRun oracle = per_tick_oracle(c.graph, 0, oracle_eng, oracle_opts);
      std::vector<Inform> informs;
      const auto hooked = core::run_async_global_clock(
          c.graph, 0, hook_eng, hook_opts,
          [&informs](NodeId informer, NodeId target) { informs.emplace_back(informer, target); });
      const auto plain = core::run_async(c.graph, 0, plain_eng, plain_opts);

      // The hook changes nothing: run_async is the same loop.
      EXPECT_EQ(plain.steps, hooked.steps);
      EXPECT_EQ(plain.informed_time, hooked.informed_time);
      EXPECT_EQ(plain.time, hooked.time);
      EXPECT_EQ(plain_eng.state(), hook_eng.state());

      EXPECT_EQ(hooked.steps, oracle.result.steps);
      EXPECT_EQ(hooked.completed, oracle.result.completed);
      EXPECT_EQ(hooked.completed, !c.hits_cap);
      EXPECT_EQ(hook_eng.state(), oracle_eng.state());
      EXPECT_EQ(informs, oracle.informs);
      if (c.crosses_underflow) {
        EXPECT_GT(oracle.max_idle_gap * static_cast<double>(c.graph.num_nodes()),
                  1074.0 * std::log(2.0));
      }
      const double rel = static_cast<double>(oracle.result.steps) * 0x1p-52;
      ASSERT_EQ(hooked.informed_time.size(), oracle.result.informed_time.size());
      for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
        const double want = oracle.result.informed_time[v];
        const double got = hooked.informed_time[v];
        ASSERT_EQ(got == core::kNeverTime, want == core::kNeverTime) << "node " << v;
        if (want == core::kNeverTime) continue;
        EXPECT_LE(std::abs(got - want), rel * want) << "node " << v;
      }
      EXPECT_LE(std::abs(hooked.time - oracle.result.time), rel * oracle.result.time);
    }
  }
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
