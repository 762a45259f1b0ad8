// Tests for informing forests: structural validity (parents adjacent and
// informed strictly earlier, forest spans, acyclic by construction), exact
// agreement with the plain engines under the same seed, and path-length
// facts the proofs rely on (path length <= informing round; depth bounds).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "rng/rng.hpp"
#include "support/informing_forest.hpp"

using namespace rumor;

namespace {

void expect_valid_sync_forest(const graph::Graph& g, const core::SyncForestRun& run,
                              graph::NodeId source) {
  ASSERT_TRUE(run.forest.completed);
  EXPECT_EQ(run.forest.parent[source], core::kNoParent);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == source) continue;
    const graph::NodeId p = run.forest.parent[v];
    ASSERT_NE(p, core::kNoParent) << "node " << v << " informed without informer";
    EXPECT_TRUE(g.has_edge(v, p)) << "informer not adjacent";
    EXPECT_LT(run.result.informed_round[p], run.result.informed_round[v])
        << "informer not earlier";
    // Path length can't exceed the informing round: each hop costs >= 1.
    EXPECT_LE(run.forest.path_length(v), run.result.informed_round[v]);
  }
}

}  // namespace

TEST(SyncForest, ValidOnCanonicalGraphs) {
  for (const auto& g : {graph::hypercube(6), graph::star(64), graph::cycle(48),
                        graph::complete(32), graph::bundle_chain(4, 9)}) {
    auto eng = rng::derive_stream(1200, 0);
    const auto run = core::run_sync_with_forest(g, 0, eng);
    expect_valid_sync_forest(g, run, 0);
  }
}

TEST(SyncForest, MatchesPlainEngineGivenSameSeed) {
  const auto g = graph::torus(8);
  auto e1 = rng::derive_stream(1201, 0);
  auto e2 = rng::derive_stream(1201, 0);
  const auto plain = core::run_sync(g, 0, e1);
  const auto forest = core::run_sync_with_forest(g, 0, e2);
  EXPECT_EQ(plain.rounds, forest.result.rounds);
  EXPECT_EQ(plain.informed_round, forest.result.informed_round);
}

TEST(SyncForest, RespectsModesAndLoss) {
  const auto g = graph::hypercube(6);
  for (core::Mode mode : {core::Mode::kPush, core::Mode::kPull, core::Mode::kPushPull}) {
    auto eng = rng::derive_stream(1202, static_cast<std::uint64_t>(mode));
    core::SyncOptions opts;
    opts.mode = mode;
    opts.message_loss = 0.2;
    const auto run = core::run_sync_with_forest(g, 0, eng, opts);
    expect_valid_sync_forest(g, run, 0);
  }
}

TEST(SyncForest, StarDepthIsAtMostTwo) {
  // Informing paths on the star: leaf -> hub -> leaves; depth <= 2.
  const auto g = graph::star(128);
  for (int i = 0; i < 20; ++i) {
    auto eng = rng::derive_stream(1203, static_cast<std::uint64_t>(i));
    const auto run = core::run_sync_with_forest(g, 1, eng);
    ASSERT_TRUE(run.forest.completed);
    EXPECT_LE(run.forest.depth(), 2u);
  }
}

TEST(SyncForest, PathDepthIsExactlyDistance) {
  // On a path from node 0 there is a single informing route.
  const auto g = graph::path(32);
  auto eng = rng::derive_stream(1204, 0);
  const auto run = core::run_sync_with_forest(g, 0, eng);
  ASSERT_TRUE(run.forest.completed);
  for (graph::NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(run.forest.path_length(v), v);
  }
}

TEST(SyncForest, DepthBoundedByEccentricityPlusSlack) {
  // Informing paths are real paths, so depth >= eccentricity never holds in
  // reverse: depth >= BFS distance of the deepest node; and depth <= rounds.
  const auto g = graph::hypercube(7);
  auto eng = rng::derive_stream(1205, 0);
  const auto run = core::run_sync_with_forest(g, 0, eng);
  ASSERT_TRUE(run.forest.completed);
  EXPECT_GE(run.forest.depth(), graph::eccentricity(g, 0));
  EXPECT_LE(run.forest.depth(), run.result.rounds);
}

TEST(AsyncForest, ValidStructure) {
  const auto g = graph::hypercube(6);
  auto eng = rng::derive_stream(1206, 0);
  const auto run = core::run_async_with_forest(g, 0, eng);
  ASSERT_TRUE(run.forest.completed);
  EXPECT_EQ(run.forest.parent[0], core::kNoParent);
  for (graph::NodeId v = 1; v < g.num_nodes(); ++v) {
    const graph::NodeId p = run.forest.parent[v];
    ASSERT_NE(p, core::kNoParent);
    EXPECT_TRUE(g.has_edge(v, p));
    EXPECT_LT(run.result.informed_time[p], run.result.informed_time[v]);
    EXPECT_LE(run.forest.path_length(v), g.num_nodes());
  }
}

TEST(AsyncForest, MatchesPlainEngineGivenSameSeed) {
  const auto g = graph::cycle(64);
  auto e1 = rng::derive_stream(1207, 0);
  auto e2 = rng::derive_stream(1207, 0);
  const auto plain = core::run_async(g, 0, e1);
  const auto forest = core::run_async_with_forest(g, 0, e2);
  EXPECT_EQ(plain.steps, forest.result.steps);
  EXPECT_EQ(plain.informed_time, forest.result.informed_time);
}

TEST(AsyncForest, MultiSourceForestHasMultipleRoots) {
  const auto g = graph::path(64);
  auto eng = rng::derive_stream(1208, 0);
  core::AsyncOptions opts;
  opts.extra_sources = {63};
  const auto run = core::run_async_with_forest(g, 0, eng, opts);
  ASSERT_TRUE(run.forest.completed);
  EXPECT_EQ(run.forest.parent[0], core::kNoParent);
  EXPECT_EQ(run.forest.parent[63], core::kNoParent);
  // Every other node descends from one of the two roots.
  for (graph::NodeId v = 1; v < 63; ++v) {
    graph::NodeId root = v;
    while (run.forest.parent[root] != core::kNoParent) root = run.forest.parent[root];
    EXPECT_TRUE(root == 0 || root == 63) << "node " << v << " root " << root;
  }
}

TEST(AsyncForest, DepthNeverBelowBfsDistance) {
  const auto g = graph::torus(8);
  auto eng = rng::derive_stream(1209, 0);
  const auto run = core::run_async_with_forest(g, 0, eng);
  ASSERT_TRUE(run.forest.completed);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(run.forest.path_length(v), dist[v]);
  }
}
