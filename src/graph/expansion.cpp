#include "graph/expansion.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace rumor::graph {

namespace {

/// Second eigenvector of the lazy walk by power iteration.
std::vector<double> second_eigenvector(const Graph& g, std::uint32_t iterations) {
  const NodeId n = g.num_nodes();
  assert(n >= 2);
  // Stationary distribution of the walk: pi(v) ~ deg(v). Deflate against
  // it using the D-inner product, under which W is self-adjoint.
  double total_degree = 0.0;
  for (NodeId v = 0; v < n; ++v) total_degree += g.degree(v);

  std::vector<double> x(n);
  // Deterministic, seed-free start vector orthogonal-ish to constants.
  for (NodeId v = 0; v < n; ++v) x[v] = (v % 2 == 0 ? 1.0 : -1.0) + 1.0 / (1.0 + v);
  std::vector<double> next(n);

  auto deflate = [&] {
    // Remove the component along the all-ones right eigenvector with
    // respect to the pi-weighted inner product: x -= (<x,1>_pi) * 1.
    double dot = 0.0;
    for (NodeId v = 0; v < n; ++v) dot += x[v] * g.degree(v);
    dot /= total_degree;
    for (NodeId v = 0; v < n; ++v) x[v] -= dot;
  };
  auto normalize = [&] {
    double norm = 0.0;
    for (double xv : x) norm += xv * xv;
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (double& xv : x) xv /= norm;
    }
  };

  deflate();
  normalize();
  for (std::uint32_t it = 0; it < iterations; ++it) {
    // next = W x with W = (I + D^{-1} A) / 2.
    for (NodeId v = 0; v < n; ++v) {
      double acc = 0.0;
      for (NodeId w : g.neighbors(v)) acc += x[w];
      next[v] = 0.5 * x[v] + 0.5 * acc / static_cast<double>(g.degree(v));
    }
    x.swap(next);
    deflate();
    normalize();
  }
  return x;
}

}  // namespace

std::vector<NodeId> spectral_order(const Graph& g, std::uint32_t iterations) {
  const auto fiedler = second_eigenvector(g, iterations);
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return fiedler[a] < fiedler[b]; });
  return order;
}

double conductance_sweep(const Graph& g) {
  const NodeId n = g.num_nodes();
  assert(n >= 2);
  const auto order = spectral_order(g);
  const double total_vol = 2.0 * static_cast<double>(g.num_edges());

  // Incremental sweep: maintain cut and volume as vertices move into S.
  std::vector<std::uint8_t> in_s(n, 0);
  double vol = 0.0;
  double cut = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const NodeId v = order[i];
    in_s[v] = 1;
    vol += g.degree(v);
    for (NodeId w : g.neighbors(v)) {
      cut += in_s[w] ? -1.0 : 1.0;
    }
    const double denom = std::min(vol, total_vol - vol);
    if (denom > 0.0) best = std::min(best, cut / denom);
  }
  return best;
}

}  // namespace rumor::graph
