// Tests for graph::GraphBuilder — the mutable edge accumulator every
// generator builds through. The builder's contract: self-loops are ignored,
// parallel edges are deduplicated at build(), and each row is sorted
// ascending. The counting-sort build() is held to the arc-sort oracle below
// byte for byte, and the seeded random generators to golden CSR hashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"

namespace graph = rumor::graph;
namespace rng = rumor::rng;
namespace sim = rumor::sim;

namespace {

/// A CSR laid out as plain vectors, so two builds compare with ==.
struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<graph::NodeId> neighbors;
  std::string name;

  friend bool operator==(const Csr&, const Csr&) = default;
};

Csr csr_of(const graph::Graph& g) {
  Csr out;
  out.offsets.push_back(0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    out.neighbors.insert(out.neighbors.end(), nb.begin(), nb.end());
    out.offsets.push_back(out.neighbors.size());
  }
  out.name = g.name();
  return out;
}

/// The reference build: expand every non-loop edge into both arcs, sort all
/// arcs globally as (from, to), drop repeats, and prefix-sum the row lengths.
Csr arc_sort_build(graph::NodeId n, const std::vector<graph::Edge>& edges, std::string name) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> arcs;
  arcs.reserve(edges.size() * 2);
  for (const graph::Edge& e : edges) {
    if (e.a == e.b) continue;
    arcs.emplace_back(e.a, e.b);
    arcs.emplace_back(e.b, e.a);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  Csr out;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [from, to] : arcs) {
    ++out.offsets[static_cast<std::size_t>(from) + 1];
    out.neighbors.push_back(to);
  }
  for (std::size_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.name = std::move(name);
  return out;
}

Csr counting_sort_build(graph::NodeId n, const std::vector<graph::Edge>& edges, std::string name) {
  graph::GraphBuilder b(n);
  for (const graph::Edge& e : edges) b.add_edge(e.a, e.b);
  return csr_of(std::move(b).build(std::move(name)));
}

/// g's edges as a builder input that exercises the dedup path: every edge in
/// a shuffled order and a random orientation, a third of them added twice
/// (once per orientation), plus a self-loop at every fifth node.
std::vector<graph::Edge> scrambled_edges(const graph::Graph& g, rng::Engine& eng) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::NodeId w : g.neighbors(v)) {
      if (v >= w) continue;
      const graph::Edge e = (eng.next() & 1u) != 0 ? graph::Edge{w, v} : graph::Edge{v, w};
      edges.push_back(e);
      if (rng::uniform_below(eng, 3) == 0) edges.push_back(graph::Edge{e.b, e.a});
    }
    if (v % 5 == 0) edges.push_back(graph::Edge{v, v});
  }
  rng::shuffle(eng, std::span<graph::Edge>(edges));
  return edges;
}

/// Asserts both builders turn g's scrambled edge list back into g exactly.
void expect_builders_reproduce(const graph::Graph& g, rng::Engine& eng) {
  const auto edges = scrambled_edges(g, eng);
  const Csr want = csr_of(g);
  const Csr oracle = arc_sort_build(g.num_nodes(), edges, g.name());
  const Csr built = counting_sort_build(g.num_nodes(), edges, g.name());
  EXPECT_TRUE(oracle == want) << g.name() << ": the oracle disagrees with the generator";
  EXPECT_TRUE(built == oracle) << g.name() << ": counting sort disagrees with the oracle";
}

/// FNV-1a 64 over the CSR: offsets as little-endian u64, then neighbors as
/// little-endian u32.
std::uint64_t csr_hash(const graph::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  const Csr csr = csr_of(g);
  for (const std::uint64_t off : csr.offsets) mix(off, 8);
  for (const graph::NodeId w : csr.neighbors) mix(w, 4);
  return h;
}

}  // namespace

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge, reversed
  b.add_edge(0, 1);  // exact duplicate
  b.add_edge(2, 3);
  EXPECT_EQ(b.num_edges_added(), 4u);  // raw additions are all recorded
  const auto g = std::move(b).build("dedup");
  EXPECT_EQ(g.num_edges(), 2u);  // {0,1} once, {2,3} once
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphBuilder, IgnoresSelfLoops) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(1, 1);
  b.add_edge(0, 1);
  const auto g = std::move(b).build("loops");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(GraphBuilder, SelfLoopsOnlyYieldEmptyGraph) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(1, 1);
  const auto g = std::move(b).build("only-loops");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, NeighborsAreSortedAfterBuild) {
  graph::GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const auto g = std::move(b).build("sorted");
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphBuilder, HasEdgeSeesAddedEdges) {
  {
    graph::GraphBuilder b(4);
    const auto g = std::move(b).build("none");
    EXPECT_FALSE(g.has_edge(0, 1));
  }
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 1);
  const auto g = std::move(b).build("two");
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // orientation-insensitive
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(GraphBuilder, HasEdgeMatchesAddedEdgeSetOnRandomGraphs) {
  auto eng = rng::derive_stream(4242, 0);
  for (int round = 0; round < 20; ++round) {
    const graph::NodeId n = 30;
    graph::GraphBuilder b(n);
    // Random multigraph additions, self-loops included on purpose: the
    // frozen graph must report exactly the distinct non-loop edges.
    std::set<std::pair<graph::NodeId, graph::NodeId>> expected;
    for (int i = 0; i < 120; ++i) {
      const auto a = static_cast<graph::NodeId>(rng::uniform_below(eng, n));
      const auto c = static_cast<graph::NodeId>(rng::uniform_below(eng, n));
      b.add_edge(a, c);
      if (a != c) expected.insert({std::min(a, c), std::max(a, c)});
    }
    const auto g = std::move(b).build("random");
    EXPECT_EQ(g.num_edges(), expected.size());
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = 0; v < n; ++v) {
        const bool want = u != v && expected.count({std::min(u, v), std::max(u, v)}) > 0;
        EXPECT_EQ(g.has_edge(u, v), want) << "{" << u << "," << v << "}";
      }
    }
  }
}

TEST(GraphBuilder, GeneratorsProduceSimpleGraphs) {
  // End-to-end: random generators route everything through the builder, so
  // their outputs must be simple (no loops — CSR can't represent them once
  // deduped — and strictly sorted unique neighbor lists).
  auto eng = rng::derive_stream(4243, 0);
  const graph::Graph graphs[] = {
      graph::erdos_renyi(200, 0.05, eng),
      graph::random_regular(200, 4, eng),
      graph::preferential_attachment(200, 3, eng),
  };
  for (const auto& g : graphs) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        EXPECT_NE(nb[i], v) << g.name() << ": self-loop at " << v;
        if (i > 0) {
          EXPECT_LT(nb[i - 1], nb[i]) << g.name() << ": dup/unsorted at " << v;
        }
      }
    }
  }
}

TEST(GraphBuilder, MatchesArcSortOracleOnEveryCampaignFamily) {
  // Every family sim::build_graph accepts, at two sizes and two graph
  // seeds: the random ones also pass through largest_component there.
  const char* const families[] = {
      "complete",       "star",           "double_star",        "path",
      "cycle",          "wheel",          "tree",               "complete_binary_tree",
      "torus",          "torus3d",        "hypercube",          "complete_bipartite",
      "erdos_renyi",    "random_regular", "chung_lu",           "preferential_attachment",
      "watts_strogatz", "lollipop",       "barbell",            "chain_of_stars",
      "bundle_chain",
  };
  auto eng = rng::derive_stream(4244, 0);
  for (const char* family : families) {
    for (const std::uint64_t n : {37u, 600u}) {
      for (const std::uint64_t graph_seed : {11u, 12u}) {
        sim::GraphSpec spec;
        spec.family = family;
        spec.n = n;
        spec.graph_seed = graph_seed;
        expect_builders_reproduce(sim::build_graph(spec, 0), eng);
      }
    }
  }
}

TEST(GraphBuilder, MatchesArcSortOracleOnLargestComponent) {
  // A sparse G(n, p) below the connectivity threshold: many components,
  // and the extracted one is relabeled before it is rebuilt.
  auto eng = rng::derive_stream(4245, 0);
  for (const double p : {0.002, 0.004}) {
    const auto whole = graph::erdos_renyi(800, p, eng);
    const auto giant = graph::largest_component(whole);
    ASSERT_LT(giant.num_nodes(), whole.num_nodes());
    expect_builders_reproduce(whole, eng);
    expect_builders_reproduce(giant, eng);
  }
}

TEST(GraphBuilder, MatchesArcSortOracleOnRandomMultisets) {
  auto eng = rng::derive_stream(4246, 0);
  for (int round = 0; round < 200; ++round) {
    // n from 1 up; with few draws some nodes stay isolated, and an edge
    // budget of zero gives the edgeless graph.
    const auto n = static_cast<graph::NodeId>(1 + rng::uniform_below(eng, 40));
    const auto draws = rng::uniform_below(eng, 4 * std::uint64_t{n});
    std::vector<graph::Edge> edges;
    for (std::uint64_t i = 0; i < draws; ++i) {
      const auto a = static_cast<graph::NodeId>(rng::uniform_below(eng, n));
      const auto c = static_cast<graph::NodeId>(rng::uniform_below(eng, n));
      edges.push_back({a, c});
      if (rng::uniform_below(eng, 4) == 0) edges.push_back({c, a});  // reversed repeat
      if (rng::uniform_below(eng, 8) == 0) edges.push_back({a, a});  // self-loop
    }
    const std::string name = "multiset#" + std::to_string(round);
    EXPECT_TRUE(counting_sort_build(n, edges, name) == arc_sort_build(n, edges, name))
        << name << " (n=" << n << ", " << edges.size() << " additions)";
  }
}

TEST(GraphBuilder, MatchesArcSortOracleOnDegenerateInputs) {
  const std::vector<std::pair<graph::NodeId, std::vector<graph::Edge>>> cases = {
      {1, {}},                                // n = 1
      {1, {{0, 0}, {0, 0}}},                  // n = 1, self-loops only
      {6, {}},                                // edgeless, all isolated
      {6, {{5, 0}, {0, 5}, {5, 0}, {3, 3}}},  // one edge, three ways; 1-4 isolated
      {3, {{2, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {0, 1}}},  // triangle, both orientations
  };
  for (const auto& [n, edges] : cases) {
    const Csr built = counting_sort_build(n, edges, "degenerate");
    EXPECT_TRUE(built == arc_sort_build(n, edges, "degenerate"))
        << "n=" << n << ", " << edges.size() << " additions";
    EXPECT_EQ(built.offsets.size(), std::size_t{n} + 1);
  }
}

TEST(GeneratorFingerprint, SeededRandomFamiliesKeepTheirCsr) {
  // Golden FNV-1a hashes of seeded generator output: a change to the
  // builder or to the generators' bookkeeping must leave every one intact.
  // random_regular(16384, 6) from Engine(7) pairs 4 duplicate edges (and 2
  // self-loops) on its first shuffle, so it covers the swap-repair path.
  struct Golden {
    graph::Graph g;
    std::uint64_t hash;
  };
  auto make = [](auto generate) {
    rng::Engine eng(7);
    return generate(eng);
  };
  const Golden goldens[] = {
      {make([](rng::Engine& e) { return graph::random_regular(16384, 6, e); }),
       0x73eb101aa2cd9da1ULL},
      {make([](rng::Engine& e) { return graph::random_regular(1000, 3, e); }),
       0xc562a995d939807cULL},
      {make([](rng::Engine& e) { return graph::erdos_renyi(2000, 0.005, e); }),
       0x4d4c6c88b31a0a27ULL},
      {make([](rng::Engine& e) { return graph::watts_strogatz(4096, 6, 0.1, e); }),
       0x313e712b5eb29021ULL},
      {make([](rng::Engine& e) { return graph::chung_lu(4096, graph::ChungLuOptions{}, e); }),
       0x3f3afc138b30f8b3ULL},
      {make([](rng::Engine& e) { return graph::preferential_attachment(4096, 3, e); }),
       0x83e9a712952d0008ULL},
  };
  for (const auto& [g, hash] : goldens) {
    EXPECT_EQ(csr_hash(g), hash) << g.name();
  }
}

TEST(GeneratorFingerprint, DenseRandomRegularKeepsItsCsr) {
  // At d = n / 2 the first pairing collides on a large share of its edges,
  // so the swap repair erases and re-inserts edge keys many times over.
  rng::Engine eng(7);
  EXPECT_EQ(csr_hash(graph::random_regular(100, 50, eng)), 0xc9b9c8b51fc92069ULL);
}

TEST(GeneratorFingerprint, CampaignGraphsKeepTheirCsr) {
  // Golden FNV-1a hashes of the graphs sim::build_graph makes for the
  // paper's sweep (hypercube and random_regular at 2^14 nodes), and of a
  // connected watts_strogatz that largest_component hands back whole.
  auto build = [](const char* family, std::uint64_t n, std::uint32_t degree) {
    sim::GraphSpec spec;
    spec.family = family;
    spec.n = n;
    spec.degree = degree;
    spec.graph_seed = 360672369;
    return sim::build_graph(spec, 0);
  };
  const graph::Graph watts_strogatz = build("watts_strogatz", 4096, 6);
  ASSERT_EQ(watts_strogatz.num_nodes(), 4096u) << "the golden wants a connected graph";
  const std::pair<graph::Graph, std::uint64_t> goldens[] = {
      {build("hypercube", 16384, 0), 0x19bc6a83573e3a1dULL},
      {build("random_regular", 16384, 6), 0x1b0a7355f1952c89ULL},
      {watts_strogatz, 0x20ac7f7d6c2429b2ULL},
  };
  for (const auto& [g, hash] : goldens) {
    EXPECT_EQ(csr_hash(g), hash) << g.name();
  }
}
