// Test support (namespace rumor::graph): graph oracles the tests measure
// the library against — exact conductance and vertex expansion by subset
// enumeration (the ground truth for the spectral sweep and the Cheeger
// sandwich), a degree summary for checking generators, and an edge-list
// writer for the read/pack round trips.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace rumor::graph {

/// Exact conductance by enumerating all 2^(n-1) cuts. Precondition:
/// n <= 24 (it is O(2^n * n)); intended for tests.
[[nodiscard]] double conductance_exact(const Graph& g);

/// Exact vertex expansion min_{0 < |S| <= n/2} |N(S) \ S| / |S| by subset
/// enumeration. Precondition: n <= 24; intended for tests.
[[nodiscard]] double vertex_expansion_exact(const Graph& g);

/// Degree distribution summary.
struct DegreeStats {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  double mean = 0.0;
  bool regular = false;
};

[[nodiscard]] DegreeStats degree_stats(const Graph& g);

/// Writes `g` as an edge list (one undirected edge per line, endpoints in
/// ascending order, preceded by a comment header with n and m).
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

}  // namespace rumor::graph
