// Cross-product invariant matrix: every (graph family x protocol mode x
// clocking model) combination must satisfy the structural invariants of a
// rumor-spreading execution. This is the suite's wide safety net — a bug in
// any engine's bookkeeping (snapshot discipline, commit order, cap
// handling, per-view clock logic) surfaces here even if the distributional
// tests happen to still pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/rumor.hpp"
#include "graph/expansion.hpp"
#include "rng/rng.hpp"
#include "support/coupling_push.hpp"

using namespace rumor;

namespace {

graph::Graph family_graph(int family) {
  auto eng = rng::derive_stream(0xfa111ULL, static_cast<std::uint64_t>(family));
  switch (family) {
    case 0: return graph::complete(48);
    case 1: return graph::star(80);
    case 2: return graph::double_star(60);
    case 3: return graph::path(40);
    case 4: return graph::cycle(50);
    case 5: return graph::torus(7);
    case 6: return graph::hypercube(6);
    case 7: return graph::complete_binary_tree(63);
    case 8: return graph::lollipop(16, 12);
    case 9: return graph::barbell(12, 4);
    case 10: return graph::chain_of_stars(5, 6);
    case 11: return graph::bundle_chain(4, 9);
    case 12: return graph::wheel(40);
    case 13: return graph::complete_bipartite(7, 23);
    case 14: return graph::torus3d(3);
    case 15: return graph::erdos_renyi(80, 0.12, eng);
    case 16: return graph::random_regular(60, 4, eng);
    case 17: return graph::preferential_attachment(80, 2, eng);
    case 18: return graph::largest_component(graph::watts_strogatz(80, 4, 0.2, eng));
    default:
      return graph::largest_component(
          graph::chung_lu(100, {.beta = 2.4, .average_degree = 6.0}, eng));
  }
}

constexpr int kNumFamilies = 20;

}  // namespace

// --- Sync engine matrix -----------------------------------------------------

class SyncMatrix : public ::testing::TestWithParam<std::tuple<int, core::Mode>> {};

TEST_P(SyncMatrix, ExecutionInvariants) {
  const auto [family, mode] = GetParam();
  const auto g = family_graph(family);
  if (!graph::is_connected(g)) GTEST_SKIP() << "random instance disconnected";

  // All three modes complete on a connected graph (in pull-only, every
  // uninformed node keeps contacting until it hits an informed neighbor).
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    auto eng = rng::derive_stream(0x517ecULL + family, trial);
    core::SyncOptions opts;
    opts.mode = mode;
    opts.record_history = true;
    const auto r = core::run_sync(g, 0, eng, opts);
    ASSERT_TRUE(r.completed) << g.name();

    // Source at round 0; everyone informed by `rounds`; rounds is tight.
    EXPECT_EQ(r.informed_round[0], 0u);
    std::uint64_t max_round = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NE(r.informed_round[v], core::kNeverRound) << g.name() << " node " << v;
      max_round = std::max(max_round, r.informed_round[v]);
    }
    EXPECT_EQ(max_round, r.rounds);

    // Hop-distance lower bound: a node at BFS distance h needs >= h rounds.
    const auto dist = graph::bfs_distances(g, 0);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(r.informed_round[v], dist[v]) << g.name() << " node " << v;
    }

    // History: monotone, starts at 1, ends at n, grows by <= n per round.
    ASSERT_EQ(r.informed_count_history.size(), r.rounds + 1);
    EXPECT_EQ(r.informed_count_history.front(), 1u);
    EXPECT_EQ(r.informed_count_history.back(), g.num_nodes());
    for (std::size_t i = 1; i < r.informed_count_history.size(); ++i) {
      EXPECT_GE(r.informed_count_history[i], r.informed_count_history[i - 1]);
      // Push-pull at most doubles+pulls; crude sanity: growth bounded by n.
      EXPECT_LE(r.informed_count_history[i], g.num_nodes());
    }

    // Every round before completion informs at least zero nodes, and the
    // last round informs at least one (rounds is the completion round).
    EXPECT_GT(r.informed_count_history[r.rounds],
              r.informed_count_history[r.rounds - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SyncMatrix,
    ::testing::Combine(::testing::Range(0, kNumFamilies),
                       ::testing::Values(core::Mode::kPush, core::Mode::kPull,
                                         core::Mode::kPushPull)),
    [](const auto& param_info) {
      std::string name = "f";
      name += std::to_string(std::get<0>(param_info.param));
      name += '_';
      switch (std::get<1>(param_info.param)) {
        case core::Mode::kPush: name += "push"; break;
        case core::Mode::kPull: name += "pull"; break;
        case core::Mode::kPushPull: name += "pushpull"; break;
      }
      return name;
    });

// --- Async engine matrix ------------------------------------------------------

class AsyncMatrix
    : public ::testing::TestWithParam<std::tuple<int, core::Mode, core::AsyncView>> {};

TEST_P(AsyncMatrix, ExecutionInvariants) {
  const auto [family, mode, view] = GetParam();
  const auto g = family_graph(family);
  if (!graph::is_connected(g)) GTEST_SKIP() << "random instance disconnected";

  auto eng = rng::derive_stream(0xa517ecULL + family, static_cast<std::uint64_t>(view));
  core::AsyncOptions opts;
  opts.mode = mode;
  opts.view = view;
  const auto r = core::run_async(g, 0, eng, opts);
  ASSERT_TRUE(r.completed) << g.name();

  EXPECT_DOUBLE_EQ(r.informed_time[0], 0.0);
  double max_time = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(r.informed_time[v], core::kNeverTime) << g.name() << " node " << v;
    EXPECT_GE(r.informed_time[v], 0.0);
    max_time = std::max(max_time, r.informed_time[v]);
  }
  EXPECT_DOUBLE_EQ(max_time, r.time);
  EXPECT_GE(r.steps, g.num_nodes() - 1u);  // each step informs at most one node

  // Inform times of non-sources are strictly positive and distinct with
  // probability 1 (continuous clocks).
  std::vector<double> times(r.informed_time.begin() + 1, r.informed_time.end());
  std::sort(times.begin(), times.end());
  EXPECT_GT(times.front(), 0.0);
  EXPECT_EQ(std::adjacent_find(times.begin(), times.end()), times.end());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, AsyncMatrix,
    ::testing::Combine(::testing::Range(0, kNumFamilies),
                       ::testing::Values(core::Mode::kPush, core::Mode::kPushPull),
                       ::testing::Values(core::AsyncView::kGlobalClock,
                                         core::AsyncView::kPerNodeClocks)),
    [](const auto& param_info) {
      std::string name = "f";
      name += std::to_string(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) == core::Mode::kPush ? "_push" : "_pushpull";
      name += std::get<2>(param_info.param) == core::AsyncView::kGlobalClock ? "_global"
                                                                       : "_pernode";
      return name;
    });

// --- Aux process matrix ----------------------------------------------------------

class AuxMatrix : public ::testing::TestWithParam<std::tuple<int, core::AuxKind>> {};

TEST_P(AuxMatrix, ExecutionInvariants) {
  const auto [family, kind] = GetParam();
  const auto g = family_graph(family);
  if (!graph::is_connected(g)) GTEST_SKIP() << "random instance disconnected";

  auto eng = rng::derive_stream(0xa0517ecULL + family, static_cast<std::uint64_t>(kind));
  core::AuxOptions opts;
  opts.kind = kind;
  const auto r = core::run_aux(g, 0, eng, opts);
  ASSERT_TRUE(r.completed) << g.name();
  EXPECT_EQ(r.informed_round[0], 0u);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(r.informed_round[v], core::kNeverRound);
    EXPECT_GE(r.informed_round[v], dist[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, AuxMatrix,
                         ::testing::Combine(::testing::Range(0, kNumFamilies),
                                            ::testing::Values(core::AuxKind::kPpx,
                                                              core::AuxKind::kPpy)),
                         [](const auto& param_info) {
                           std::string name = "f";
                           name += std::to_string(std::get<0>(param_info.param));
                           name += std::get<1>(param_info.param) == core::AuxKind::kPpx ? "_ppx"
                                                                                  : "_ppy";
                           return name;
                         });

// --- Coupling matrix -------------------------------------------------------------

class CouplingMatrix : public ::testing::TestWithParam<int> {};

TEST_P(CouplingMatrix, PullCouplingInvariants) {
  const auto g = family_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP();
  auto eng = rng::derive_stream(0xc0517ecULL, static_cast<std::uint64_t>(GetParam()));
  const auto run = core::run_pull_coupling(g, 0, eng);
  ASSERT_TRUE(run.completed) << g.name();
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(run.round_ppx[v], dist[v]);
    EXPECT_GE(run.round_ppy[v], dist[v]);
    EXPECT_GE(run.time_ppa[v], 0.0);
  }
}

TEST_P(CouplingMatrix, BlockCouplingInvariants) {
  const auto g = family_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP();
  auto eng = rng::derive_stream(0xb0517ecULL, static_cast<std::uint64_t>(GetParam()));
  const auto stats = core::run_block_coupling(g, 0, eng);
  ASSERT_TRUE(stats.completed) << g.name();
  EXPECT_TRUE(stats.subset_invariant_held) << g.name();
  EXPECT_LE(stats.special_blocks, stats.right_blocks);
  EXPECT_LE(stats.sync_rounds_to_complete, stats.rounds);
}

TEST_P(CouplingMatrix, PushCouplingInvariants) {
  const auto g = family_graph(GetParam());
  if (!graph::is_connected(g)) GTEST_SKIP();
  auto eng = rng::derive_stream(0xd0517ecULL, static_cast<std::uint64_t>(GetParam()));
  const auto run = core::run_push_coupling(g, 0, eng);
  ASSERT_TRUE(run.completed) << g.name();
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(run.round_push[v], dist[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CouplingMatrix, ::testing::Range(0, kNumFamilies));
