#include "graph/graph.hpp"

#include <algorithm>

namespace rumor::graph {

void GraphBuilder::add_edge(NodeId a, NodeId b) {
  assert(a < num_nodes_ && b < num_nodes_);
  if (a == b) return;  // self-loops carry no rumor
  edges_.push_back(Edge{a, b});
}

Graph GraphBuilder::build(std::string name) && {
  // Count degrees; after the inclusive prefix sum offsets[v] is the end of
  // v's row.
  const std::size_t n = num_nodes_;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.a];
    ++offsets[e.b];
  }
  for (std::size_t v = 1; v < n; ++v) offsets[v] += offsets[v - 1];
  if (n > 0) offsets[n] = offsets[n - 1];

  // Scatter both orientations, filling each row back to front; afterwards
  // offsets[v] is the start of v's row again.
  std::vector<NodeId> neighbors(edges_.size() * 2);
  for (const Edge& e : edges_) {
    neighbors[--offsets[e.a]] = e.b;
    neighbors[--offsets[e.b]] = e.a;
  }
  std::vector<Edge>().swap(edges_);

  // Sort and dedupe each row in place, then slide it left to close the gaps
  // that earlier rows' duplicates left (offsets[v + 1] is read before it is
  // rewritten on the next iteration).
  NodeId* const base = neighbors.data();
  std::uint64_t write = 0;
  for (std::size_t v = 0; v < n; ++v) {
    NodeId* const first = base + offsets[v];
    NodeId* const last = base + offsets[v + 1];
    std::sort(first, last);
    offsets[v] = write;
    NodeId* const end = std::move(first, std::unique(first, last), base + write);
    write = static_cast<std::uint64_t>(end - base);
  }
  offsets[n] = write;
  neighbors.resize(write);
  neighbors.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors), std::move(name));
}

std::uint32_t Graph::neighbor_index(NodeId v, NodeId w) const noexcept {
  const auto nbrs = neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it != nbrs.end() && *it == w) {
    return static_cast<std::uint32_t>(it - nbrs.begin());
  }
  return degree(v);
}

bool Graph::is_regular() const noexcept {
  const NodeId n = num_nodes();
  if (n == 0) return true;
  const auto d = degree(0);
  for (NodeId v = 1; v < n; ++v) {
    if (degree(v) != d) return false;
  }
  return true;
}

}  // namespace rumor::graph
