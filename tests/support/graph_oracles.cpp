#include "support/graph_oracles.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace rumor::graph {

namespace {

/// Volume of a vertex subset: sum of degrees.
double volume(const Graph& g, std::uint32_t mask_bits, std::uint32_t mask) {
  double vol = 0.0;
  for (std::uint32_t v = 0; v < mask_bits; ++v) {
    if (mask & (1u << v)) vol += g.degree(v);
  }
  return vol;
}

/// Edges crossing the cut defined by `mask`.
double cut_size(const Graph& g, std::uint32_t mask) {
  double cut = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!(mask & (1u << v))) continue;
    for (NodeId w : g.neighbors(v)) {
      if (!(mask & (1u << w))) cut += 1.0;
    }
  }
  return cut;
}

}  // namespace

double conductance_exact(const Graph& g) {
  const NodeId n = g.num_nodes();
  assert(n >= 2 && n <= 24);
  const double total_vol = 2.0 * static_cast<double>(g.num_edges());
  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t limit = 1u << (n - 1);  // fix vertex n-1 outside S
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    const double vol = volume(g, n, mask);
    const double other = total_vol - vol;
    const double denom = std::min(vol, other);
    if (denom <= 0.0) continue;
    best = std::min(best, cut_size(g, mask) / denom);
  }
  return best;
}

double vertex_expansion_exact(const Graph& g) {
  const NodeId n = g.num_nodes();
  assert(n >= 2 && n <= 24);
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const auto size = static_cast<std::uint32_t>(std::popcount(mask));
    if (size > n / 2) continue;
    // |N(S) \ S|
    std::uint32_t boundary = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (mask & (1u << v)) continue;
      for (NodeId w : g.neighbors(v)) {
        if (mask & (1u << w)) {
          ++boundary;
          break;
        }
      }
    }
    best = std::min(best, static_cast<double>(boundary) / size);
  }
  return best;
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const NodeId n = g.num_nodes();
  if (n == 0) return s;
  s.min = std::numeric_limits<std::uint32_t>::max();
  double total = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const auto d = g.degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    total += d;
  }
  s.mean = total / static_cast<double>(n);
  s.regular = (s.min == s.max);
  return s;
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# rumor graph: " << g.name() << "\n";
  out << "# nodes: " << g.num_nodes() << " edges: " << g.num_edges() << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.neighbors(v)) {
      if (v < w) out << v << ' ' << w << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list_file: cannot open " + path);
  write_edge_list(g, out);
}

}  // namespace rumor::graph
