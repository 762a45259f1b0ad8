// rumor/graph: structural properties used to sanity-check generators and to
// provide per-graph lower bounds for the experiments.
//
// Two facts from the literature anchor our measurements:
//   * T(pp) >= ecc(u) rounds (one round extends the informed set by at most
//     one hop from u), so eccentricity is a per-source lower bound.
//   * The paper's Theorem 1 footnote uses that T_{1/n}(pp) = Omega(log n)
//     on regular graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace rumor::graph {

/// Labels each node with a component id in [0, num_components).
struct Components {
  std::vector<NodeId> label;
  NodeId num_components = 0;
};

[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// BFS hop distances from `source`; unreachable nodes get UINT32_MAX.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Eccentricity of `source`: max BFS distance to any node.
/// Precondition: g connected.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, NodeId source);

/// Exact diameter by BFS from every node — O(n m); intended for the test and
/// bench scales (n <= ~10^5 sparse).
[[nodiscard]] std::uint32_t diameter(const Graph& g);

}  // namespace rumor::graph
