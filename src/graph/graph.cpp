#include "graph/graph.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace rumor::graph {

Graph GraphBuilder::build(std::string name) && {
  // Every count below is at most the 2 * edges_.size() arcs, so this one
  // check keeps all of them in 32 bits.
  if (edges_.size() > 0x7fffffffULL) {
    throw std::length_error("GraphBuilder::build: " + std::to_string(edges_.size()) +
                            " edges make 2^32 or more arcs; offsets are 32-bit");
  }
  // Count degrees; after the inclusive prefix sum offsets[v] is the end of
  // v's row.
  const std::size_t n = num_nodes_;
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.a];
    ++offsets[e.b];
  }
  for (std::size_t v = 1; v < n; ++v) offsets[v] += offsets[v - 1];
  if (n > 0) offsets[n] = offsets[n - 1];

  // Scatter both orientations in reverse insertion order, filling each row
  // back to front: a row then lists its edges in the order they were added,
  // so a generator that adds each node's edges in ascending order emits
  // sorted rows. Afterwards offsets[v] is the start of v's row again.
  std::vector<NodeId> neighbors(edges_.size() * 2);
  for (auto e = edges_.rbegin(); e != edges_.rend(); ++e) {
    neighbors[--offsets[e->a]] = e->b;
    neighbors[--offsets[e->b]] = e->a;
  }
  std::vector<Edge>().swap(edges_);

  // Dedupe each row in place, sorting it first if it arrived out of order,
  // then slide it left to close the gaps that earlier rows' duplicates left
  // (offsets[v + 1] is read before it is rewritten on the next iteration).
  // A strictly ascending row that already sits at its write position (every
  // row does until a duplicate is dropped) is left untouched.
  NodeId* const base = neighbors.data();
  std::uint32_t write = 0;
  for (std::size_t v = 0; v < n; ++v) {
    NodeId* const first = base + offsets[v];
    NodeId* const last = base + offsets[v + 1];
    offsets[v] = write;
    if (first == base + write &&
        std::adjacent_find(first, last, std::greater_equal<NodeId>()) == last) {
      write += static_cast<std::uint32_t>(last - first);
      continue;
    }
    if (!std::is_sorted(first, last)) std::sort(first, last);
    NodeId* const unique_end = std::unique(first, last);
    std::move(first, unique_end, base + write);
    write += static_cast<std::uint32_t>(unique_end - first);
  }
  offsets[n] = write;
  if (write != neighbors.size()) {
    neighbors.resize(write);
    neighbors.shrink_to_fit();
  }
  struct Arrays {
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> neighbors;
  };
  auto arrays = std::make_shared<const Arrays>(Arrays{std::move(offsets), std::move(neighbors)});
  const std::uint32_t* const offsets_data = arrays->offsets.data();
  const NodeId* const neighbors_data = arrays->neighbors.data();
  return Graph(std::move(arrays), offsets_data, neighbors_data, num_nodes_, false,
               std::move(name));
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
