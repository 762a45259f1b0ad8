// Tests for rumor::graph — CSR integrity, every generator's structural
// invariants, and the property computations (connectivity, BFS, degrees).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "rng/rng.hpp"
#include "support/graph_oracles.hpp"

namespace graph = rumor::graph;
namespace rng = rumor::rng;
using graph::Graph;
using graph::NodeId;

namespace {

/// CSR invariants every built graph must satisfy: neighbor lists sorted,
/// no self-loops, no duplicates, symmetric adjacency.
void expect_well_formed(const Graph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end()) << "dup at " << v;
    for (NodeId w : nbrs) {
      EXPECT_NE(w, v) << "self loop at " << v;
      EXPECT_LT(w, g.num_nodes());
      EXPECT_TRUE(g.has_edge(w, v)) << "asymmetric edge " << v << "-" << w;
    }
  }
  std::size_t arc_count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) arc_count += g.degree(v);
  EXPECT_EQ(arc_count, 2 * g.num_edges());
}

}  // namespace

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, reversed
  b.add_edge(0, 1);  // duplicate
  b.add_edge(2, 2);  // self loop
  b.add_edge(1, 2);
  const Graph g = std::move(b).build("t");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  expect_well_formed(g);
}

TEST(Graph, NeighborIndexRoundTrips) {
  const Graph g = graph::cycle(10);
  for (NodeId v = 0; v < 10; ++v) {
    for (std::uint32_t i = 0; i < g.degree(v); ++i) {
      const NodeId w = g.neighbor_at(v, i);
      EXPECT_EQ(g.neighbor_index(v, w), i);
    }
  }
  EXPECT_EQ(g.neighbor_index(0, 5), g.degree(0));  // absent -> degree sentinel
}

TEST(Graph, RandomNeighborIsUniform) {
  const Graph g = graph::star(5);  // hub 0 with 4 leaves
  auto eng = rng::derive_stream(1, 0);
  std::array<int, 5> counts{};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[g.random_neighbor(0, eng)];
  EXPECT_EQ(counts[0], 0);  // hub never its own neighbor
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(static_cast<double>(counts[leaf]) / kSamples, 0.25, 0.01);
  }
}

// --- Deterministic generators ------------------------------------------------

TEST(Generators, Complete) {
  const Graph g = graph::complete(8);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 28u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(graph::diameter(g), 1u);
  expect_well_formed(g);
}

TEST(Generators, Star) {
  const Graph g = graph::star(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  for (NodeId v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(graph::diameter(g), 2u);
  expect_well_formed(g);
}

TEST(Generators, DoubleStar) {
  const Graph g = graph::double_star(12);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(g.has_edge(0, 1));
  // 10 leaves split evenly between the two hubs.
  EXPECT_EQ(g.degree(0), 6u);  // 5 leaves + other hub
  EXPECT_EQ(g.degree(1), 6u);
  EXPECT_EQ(graph::diameter(g), 3u);
  expect_well_formed(g);
}

TEST(Generators, Path) {
  const Graph g = graph::path(6);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(graph::diameter(g), 5u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 2u);
  expect_well_formed(g);
}

TEST(Generators, Cycle) {
  const Graph g = graph::cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(graph::diameter(g), 3u);
  expect_well_formed(g);
}

TEST(Generators, Torus) {
  const Graph g = graph::torus(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(graph::degree_stats(g).max, 4u);
  EXPECT_EQ(graph::diameter(g), 4u);  // 2 + 2 wrap-around hops
  EXPECT_TRUE(graph::is_connected(g));
  expect_well_formed(g);
}

TEST(Generators, Hypercube) {
  const Graph g = graph::hypercube(5);
  EXPECT_EQ(g.num_nodes(), 32u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(graph::diameter(g), 5u);
  expect_well_formed(g);
}

TEST(Generators, BinaryTree) {
  const Graph g = graph::complete_binary_tree(15);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(14), 1u);
  expect_well_formed(g);
}

TEST(Generators, Lollipop) {
  const Graph g = graph::lollipop(6, 4);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(g.degree(9), 1u);  // end of the tail
  expect_well_formed(g);
}

TEST(Generators, Barbell) {
  const Graph g = graph::barbell(5, 3);
  EXPECT_EQ(g.num_nodes(), 13u);
  EXPECT_TRUE(graph::is_connected(g));
  expect_well_formed(g);
}

TEST(Generators, ChainOfStars) {
  const Graph g = graph::chain_of_stars(4, 10);
  EXPECT_EQ(g.num_nodes(), 44u);
  EXPECT_TRUE(graph::is_connected(g));
  // Interior hubs: 10 leaves + 2 chain edges.
  EXPECT_EQ(g.degree(11), 12u);
  // End hubs: 10 leaves + 1 chain edge.
  EXPECT_EQ(g.degree(0), 11u);
  // Leaves are pendant.
  EXPECT_EQ(g.degree(1), 1u);
  expect_well_formed(g);
}

TEST(Generators, BundleChain) {
  const graph::NodeId len = 5;
  const graph::NodeId width = 7;
  const graph::Graph g = graph::bundle_chain(len, width);
  EXPECT_EQ(g.num_nodes(), (len + 1) + len * width);
  EXPECT_EQ(g.num_edges(), static_cast<std::size_t>(2 * len * width));
  EXPECT_TRUE(graph::is_connected(g));
  // No direct relay-relay edges: the chain routes through helpers only.
  for (graph::NodeId i = 0; i < len; ++i) EXPECT_FALSE(g.has_edge(i, i + 1));
  // Interior relays touch two bundles, end relays one.
  EXPECT_EQ(g.degree(0), width);
  EXPECT_EQ(g.degree(len), width);
  EXPECT_EQ(g.degree(1), 2 * width);
  // Helpers have degree exactly 2 (their two relays).
  EXPECT_EQ(g.degree(len + 1), 2u);
  // Distance between chain ends is 2 * len (relay, helper, relay, ...).
  EXPECT_EQ(graph::bfs_distances(g, 0)[len], 2 * len);
  expect_well_formed(g);
}

// --- Random generators -------------------------------------------------------

TEST(Generators, ErdosRenyiEdgeCount) {
  auto eng = rng::derive_stream(2, 0);
  const NodeId n = 400;
  const double p = 0.05;
  const Graph g = graph::erdos_renyi(n, p, eng);
  const double expected = p * n * (n - 1) / 2.0;
  const double sd = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 6 * sd);
  expect_well_formed(g);
}

TEST(Generators, ErdosRenyiDense) {
  auto eng = rng::derive_stream(2, 1);
  const Graph g = graph::erdos_renyi(30, 1.0, eng);
  EXPECT_EQ(g.num_edges(), 435u);  // complete
}

TEST(Generators, ErdosRenyiConnectedAboveThreshold) {
  auto eng = rng::derive_stream(2, 2);
  const NodeId n = 500;
  const double p = 3.0 * std::log(n) / n;
  const Graph g = graph::erdos_renyi(n, p, eng);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Generators, RandomRegularIsRegularAndConnected) {
  auto eng = rng::derive_stream(3, 0);
  const Graph g = graph::random_regular(200, 4, eng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(graph::is_connected(g));
  expect_well_formed(g);
}

TEST(Generators, RandomRegularOddDegreeEvenN) {
  auto eng = rng::derive_stream(3, 1);
  const Graph g = graph::random_regular(100, 3, eng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(Generators, ChungLuDegreesScaleWithTarget) {
  auto eng = rng::derive_stream(4, 0);
  graph::ChungLuOptions opts;
  opts.beta = 2.5;
  opts.average_degree = 10.0;
  const Graph g = graph::chung_lu(2000, opts, eng);
  const auto stats = graph::degree_stats(g);
  // Heavy-tailed: max degree far above mean; mean near the target (edge
  // probability truncation loses a little mass).
  EXPECT_GT(stats.mean, 5.0);
  EXPECT_LT(stats.mean, 14.0);
  EXPECT_GT(stats.max, 4 * static_cast<std::uint32_t>(stats.mean));
  expect_well_formed(g);
}

TEST(Generators, PreferentialAttachment) {
  auto eng = rng::derive_stream(5, 0);
  const Graph g = graph::preferential_attachment(1000, 3, eng);
  EXPECT_EQ(g.num_nodes(), 1000u);
  EXPECT_TRUE(graph::is_connected(g));  // PA graphs are connected by construction
  const auto stats = graph::degree_stats(g);
  EXPECT_GE(stats.min, 3u);
  EXPECT_GT(stats.max, 30u);  // hubs emerge
  expect_well_formed(g);
}

TEST(Generators, LargestComponent) {
  // Two disjoint triangles {0,1,2} and {3,4,5} plus isolated 6: LCC has 3 nodes.
  graph::GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = std::move(b).build("two-comps");
  const Graph lcc = graph::largest_component(g);
  EXPECT_EQ(lcc.num_nodes(), 3u);
  EXPECT_TRUE(graph::is_connected(lcc));
  EXPECT_EQ(lcc.num_edges(), 3u);  // picks the triangle, not the path
}

TEST(Generators, LargestComponentOfConnectedGraphSharesItsStorage) {
  // A connected graph is its own largest component: the result keeps the
  // "|lcc" name but reads the input's arrays instead of a rebuilt copy.
  const Graph g = graph::hypercube(5);
  const Graph lcc = graph::largest_component(g);
  EXPECT_EQ(lcc.name(), g.name() + "|lcc");
  EXPECT_EQ(lcc.num_nodes(), g.num_nodes());
  EXPECT_EQ(lcc.csr().offsets, g.csr().offsets);
  EXPECT_EQ(lcc.csr().neighbors, g.csr().neighbors);
}

// --- Properties --------------------------------------------------------------

TEST(Properties, ComponentsOnDisconnectedGraph) {
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build("disc");
  const auto comp = graph::connected_components(g);
  EXPECT_EQ(comp.num_components, 3u);
  EXPECT_EQ(comp.label[0], comp.label[1]);
  EXPECT_EQ(comp.label[2], comp.label[3]);
  EXPECT_NE(comp.label[0], comp.label[2]);
  EXPECT_NE(comp.label[4], comp.label[0]);
  EXPECT_FALSE(graph::is_connected(g));
}

TEST(Properties, BfsDistancesOnPath) {
  const Graph g = graph::path(6);
  const auto dist = graph::bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Properties, EccentricityOnStar) {
  const Graph g = graph::star(10);
  EXPECT_EQ(graph::eccentricity(g, 0), 1u);
  EXPECT_EQ(graph::eccentricity(g, 1), 2u);
}

TEST(Properties, DegreeStatsOnStar) {
  const auto stats = graph::degree_stats(graph::star(11));
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 10u);
  EXPECT_NEAR(stats.mean, 20.0 / 11.0, 1e-9);
  EXPECT_FALSE(stats.regular);
}
