// Tests for the auxiliary processes ppx (Definition 5) and ppy (Definition 7)
// and the domination chain of the paper's upper-bound proof:
//   Lemma 6   T(ppx) preceq T(pp)
//   Lemma 9   T_d(ppy) = O(T_d(ppx) + log(n/d))
//   Lemma 10  T_d(pp-a) = O(T_d(ppy) + log(n/d))
#include <gtest/gtest.h>

#include <cmath>

#include "core/aux_process.hpp"
#include "core/sync.hpp"
#include "dist/distributions.hpp"
#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"
#include "support/dist_checks.hpp"

using namespace rumor;
using core::AuxKind;

namespace {

sim::SpreadingTimeSample measure(const graph::Graph& g, AuxKind kind, std::uint64_t seed,
                                 std::uint64_t trials = 300) {
  sim::TrialConfig config;
  config.trials = trials;
  config.seed = seed;
  return sim::measure_aux(g, 0, kind, config);
}

}  // namespace

TEST(AuxEngine, CompletesOnCanonicalGraphs) {
  auto eng = rng::derive_stream(4040, 0);
  for (const auto& g : {graph::complete(32), graph::star(32), graph::cycle(32),
                        graph::hypercube(5)}) {
    for (AuxKind kind : {AuxKind::kPpx, AuxKind::kPpy}) {
      const auto r = core::run_aux(g, 0, eng, {.kind = kind});
      EXPECT_TRUE(r.completed) << g.name();
      EXPECT_GT(r.rounds, 0u) << g.name();
    }
  }
}

TEST(AuxEngine, SourceAtRoundZeroAllInformedAtEnd) {
  auto eng = rng::derive_stream(4040, 1);
  const auto g = graph::hypercube(6);
  const auto r = core::run_aux(g, 0, eng, {.kind = AuxKind::kPpx});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.informed_round[0], 0u);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NE(r.informed_round[v], core::kNeverRound);
  }
}

TEST(AuxEngine, DeterministicGivenSeed) {
  const auto g = graph::torus(6);
  auto a_eng = rng::derive_stream(4040, 2);
  auto b_eng = rng::derive_stream(4040, 2);
  const auto a = core::run_aux(g, 0, a_eng, {.kind = AuxKind::kPpy});
  const auto b = core::run_aux(g, 0, b_eng, {.kind = AuxKind::kPpy});
  EXPECT_EQ(a.informed_round, b.informed_round);
}

TEST(AuxEngine, PpxForcedPullOnStar) {
  // On a star with a leaf source, the hub has 1 >= deg/2... no: the hub has
  // n-1 neighbors, one informed, so k < deg/2 and the pull is probabilistic
  // with p = 1 - e^{-2/(n-1)}. For every *leaf*, once the hub is informed,
  // k = 1 >= deg(leaf)/2 = 0.5, so ppx forces the pull: every leaf is
  // informed exactly one round after the hub. This is ppx's sharpest
  // distinguishing behaviour.
  auto eng = rng::derive_stream(4040, 3);
  const auto g = graph::star(64);
  for (int i = 0; i < 30; ++i) {
    const auto r = core::run_aux(g, 1, eng, {.kind = AuxKind::kPpx});
    ASSERT_TRUE(r.completed);
    const auto hub_round = r.informed_round[0];
    for (graph::NodeId leaf = 1; leaf < 64; ++leaf) {
      if (leaf == 1) continue;
      EXPECT_LE(r.informed_round[leaf], hub_round + 1) << "leaf " << leaf;
    }
  }
}

TEST(AuxEngine, PpyLeafPullIsGeometricNotForced) {
  // ppy never forces: a leaf with informed hub pulls with p = 1 - e^{-2}
  // each round, so some leaves take > 1 round after the hub. With 63 leaves
  // the probability all pull immediately is (1-e^{-2})^63 ~ 8e-5.
  auto eng = rng::derive_stream(4040, 4);
  const auto g = graph::star(64);
  int slow_leaf_runs = 0;
  for (int i = 0; i < 30; ++i) {
    const auto r = core::run_aux(g, 1, eng, {.kind = AuxKind::kPpy});
    ASSERT_TRUE(r.completed);
    const auto hub_round = r.informed_round[0];
    for (graph::NodeId leaf = 2; leaf < 64; ++leaf) {
      if (r.informed_round[leaf] > hub_round + 1) {
        ++slow_leaf_runs;
        break;
      }
    }
  }
  EXPECT_GT(slow_leaf_runs, 25);
}

// --- Lemma 6: T(ppx) preceq T(pp) ---------------------------------------------

class Lemma6Domination : public ::testing::TestWithParam<int> {};

TEST_P(Lemma6Domination, PpxDominatedBySyncPushPull) {
  graph::Graph g = [&] {
    switch (GetParam()) {
      case 0: return graph::hypercube(6);
      case 1: return graph::complete(64);
      case 2: return graph::star(128);
      case 3: return graph::cycle(48);
      default: return graph::torus(8);
    }
  }();
  sim::TrialConfig config;
  config.trials = 500;
  config.seed = 91;
  const auto ppx = measure(g, AuxKind::kPpx, 91, 500);
  const auto pp = sim::measure_sync(g, 0, core::Mode::kPushPull, config);
  // T(ppx) preceq T(pp): pp's ECDF must never exceed ppx's beyond MC noise.
  const auto check = dist::check_domination(ppx.samples(), pp.samples());
  EXPECT_LE(check.max_violation, 0.09) << g.name() << " at " << check.at;
}

INSTANTIATE_TEST_SUITE_P(Graphs, Lemma6Domination, ::testing::Range(0, 5));

// --- Lemma 9 / Lemma 10 shaped bounds (marginal processes) --------------------

class AuxChainBound : public ::testing::TestWithParam<int> {};

TEST_P(AuxChainBound, PpyWithinAffineBoundOfPpx) {
  graph::Graph g = [&] {
    switch (GetParam()) {
      case 0: return graph::hypercube(6);
      case 1: return graph::complete(64);
      case 2: return graph::star(128);
      default: return graph::torus(8);
    }
  }();
  const auto ppx = measure(g, AuxKind::kPpx, 92);
  const auto ppy = measure(g, AuxKind::kPpy, 93);
  const double n = g.num_nodes();
  // Lemma 9 with the proof's constants: T(ppy) <= 2 T(ppx) + O(log n); we
  // allow constant 8 on the log term.
  EXPECT_LE(ppy.quantile(0.9), 2.0 * ppx.quantile(0.9) + 8.0 * std::log(n)) << g.name();
}

TEST_P(AuxChainBound, AsyncWithinAffineBoundOfPpy) {
  graph::Graph g = [&] {
    switch (GetParam()) {
      case 0: return graph::hypercube(6);
      case 1: return graph::complete(64);
      case 2: return graph::star(128);
      default: return graph::torus(8);
    }
  }();
  sim::TrialConfig config;
  config.trials = 300;
  config.seed = 94;
  const auto ppy = measure(g, AuxKind::kPpy, 94);
  const auto ppa = sim::measure_async(g, 0, core::Mode::kPushPull, config);
  const double n = g.num_nodes();
  // Lemma 10: T(pp-a) <= 4 T(ppy) + O(log n).
  EXPECT_LE(ppa.quantile(0.9), 4.0 * ppy.quantile(0.9) + 8.0 * std::log(n)) << g.name();
}

INSTANTIATE_TEST_SUITE_P(Graphs, AuxChainBound, ::testing::Range(0, 4));

// --- Theorem 4 end-to-end shape ------------------------------------------------

class Theorem4Shape : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Shape, AsyncWithinConstantTimesSyncPlusLog) {
  graph::Graph g = [&] {
    switch (GetParam()) {
      case 0: return graph::hypercube(7);
      case 1: return graph::complete(128);
      case 2: return graph::star(256);
      case 3: return graph::cycle(64);
      case 4: return graph::complete_binary_tree(127);
      default: return graph::torus(10);
    }
  }();
  sim::TrialConfig config;
  config.trials = 400;
  config.seed = 95;
  const auto sync = sim::measure_sync(g, 0, core::Mode::kPushPull, config);
  const auto async = sim::measure_async(g, 0, core::Mode::kPushPull, config);
  const double n = g.num_nodes();
  // Empirical Theorem 1 at the 99th percentile with constant 16 — loose
  // enough to be robust, tight enough to catch a broken engine (the star
  // would fail a pure multiplicative bound).
  EXPECT_LE(async.quantile(0.99), 16.0 * (sync.quantile(0.99) + std::log(n))) << g.name();
}

INSTANTIATE_TEST_SUITE_P(Graphs, Theorem4Shape, ::testing::Range(0, 6));
