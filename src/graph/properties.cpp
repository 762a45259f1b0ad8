#include "graph/properties.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace rumor::graph {

Components connected_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  Components comp;
  comp.label.assign(n, std::numeric_limits<NodeId>::max());
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (comp.label[start] != std::numeric_limits<NodeId>::max()) continue;
    const NodeId id = comp.num_components++;
    comp.label[start] = id;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : g.neighbors(v)) {
        if (comp.label[w] == std::numeric_limits<NodeId>::max()) {
          comp.label[w] = id;
          stack.push_back(w);
        }
      }
    }
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  return connected_components(g).num_components == 1;
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  assert(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), std::numeric_limits<std::uint32_t>::max());
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId w : g.neighbors(v)) {
      if (dist[w] == std::numeric_limits<std::uint32_t>::max()) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    assert(d != std::numeric_limits<std::uint32_t>::max() && "graph must be connected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) diam = std::max(diam, eccentricity(g, v));
  return diam;
}

}  // namespace rumor::graph
