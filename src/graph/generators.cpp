#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/properties.hpp"
#include "rng/discrete.hpp"

namespace rumor::graph {

namespace {

std::string fmt_name(const char* fmt, auto... args) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return std::string(buf);
}

}  // namespace

Graph complete(NodeId n) {
  assert(n >= 2);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  return std::move(b).build(fmt_name("complete(n=%u)", n));
}

Graph star(NodeId n) {
  assert(n >= 2);
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return std::move(b).build(fmt_name("star(n=%u)", n));
}

Graph double_star(NodeId n) {
  assert(n >= 4);
  GraphBuilder b(n);
  // Hubs 0 and 1; leaves alternate between them.
  b.add_edge(0, 1);
  for (NodeId i = 2; i < n; ++i) b.add_edge(i % 2 == 0 ? 0 : 1, i);
  return std::move(b).build(fmt_name("double_star(n=%u)", n));
}

Graph path(NodeId n) {
  assert(n >= 2);
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build(fmt_name("path(n=%u)", n));
}

Graph cycle(NodeId n) {
  assert(n >= 3);
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  b.add_edge(n - 1, 0);
  return std::move(b).build(fmt_name("cycle(n=%u)", n));
}

Graph torus(NodeId side) {
  assert(side >= 3);
  const NodeId n = side * side;
  GraphBuilder b(n);
  auto id = [side](NodeId r, NodeId c) { return r * side + c; };
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % side));
      b.add_edge(id(r, c), id((r + 1) % side, c));
    }
  }
  return std::move(b).build(fmt_name("torus(side=%u)", side));
}

Graph hypercube(std::uint32_t dimension) {
  assert(dimension >= 1 && dimension < 31);
  const NodeId n = NodeId{1} << dimension;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dimension; ++bit) {
      const NodeId w = v ^ (NodeId{1} << bit);
      if (v < w) b.add_edge(v, w);
    }
  }
  return std::move(b).build(fmt_name("hypercube(d=%u)", dimension));
}

Graph complete_binary_tree(NodeId n) {
  assert(n >= 2);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(v, (v - 1) / 2);
  return std::move(b).build(fmt_name("binary_tree(n=%u)", n));
}

Graph lollipop(NodeId clique_size, NodeId path_len) {
  assert(clique_size >= 2);
  const NodeId n = clique_size + path_len;
  GraphBuilder b(n);
  for (NodeId i = 0; i < clique_size; ++i) {
    for (NodeId j = i + 1; j < clique_size; ++j) b.add_edge(i, j);
  }
  for (NodeId i = 0; i < path_len; ++i) {
    const NodeId prev = i == 0 ? clique_size - 1 : clique_size + i - 1;
    b.add_edge(prev, clique_size + i);
  }
  return std::move(b).build(fmt_name("lollipop(k=%u,p=%u)", clique_size, path_len));
}

Graph barbell(NodeId clique_size, NodeId path_len) {
  assert(clique_size >= 2);
  const NodeId n = 2 * clique_size + path_len;
  GraphBuilder b(n);
  auto add_clique = [&](NodeId base) {
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) b.add_edge(base + i, base + j);
    }
  };
  add_clique(0);
  add_clique(clique_size + path_len);
  NodeId prev = clique_size - 1;
  for (NodeId i = 0; i < path_len; ++i) {
    b.add_edge(prev, clique_size + i);
    prev = clique_size + i;
  }
  b.add_edge(prev, clique_size + path_len);  // attach to second clique
  return std::move(b).build(fmt_name("barbell(k=%u,p=%u)", clique_size, path_len));
}

Graph chain_of_stars(NodeId hubs, NodeId leaves_per_hub) {
  assert(hubs >= 2);
  const NodeId n = hubs * (1 + leaves_per_hub);
  GraphBuilder b(n);
  // Hub i is node i * (1 + leaves); its leaves follow it contiguously.
  auto hub = [leaves_per_hub](NodeId i) { return i * (1 + leaves_per_hub); };
  for (NodeId i = 0; i + 1 < hubs; ++i) b.add_edge(hub(i), hub(i + 1));
  for (NodeId i = 0; i < hubs; ++i) {
    for (NodeId l = 1; l <= leaves_per_hub; ++l) b.add_edge(hub(i), hub(i) + l);
  }
  return std::move(b).build(fmt_name("chain_of_stars(h=%u,s=%u)", hubs, leaves_per_hub));
}

Graph wheel(NodeId n) {
  assert(n >= 4);
  GraphBuilder b(n);
  // Hub 0; rim 1..n-1 in a cycle.
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v + 1 == n ? 1 : v + 1);
  }
  return std::move(b).build(fmt_name("wheel(n=%u)", n));
}

Graph complete_bipartite(NodeId a, NodeId b_side) {
  assert(a >= 1 && b_side >= 1);
  GraphBuilder b(a + b_side);
  for (NodeId i = 0; i < a; ++i) {
    for (NodeId j = 0; j < b_side; ++j) b.add_edge(i, a + j);
  }
  return std::move(b).build(fmt_name("complete_bipartite(a=%u,b=%u)", a, b_side));
}

Graph torus3d(NodeId side) {
  assert(side >= 3);
  const NodeId n = side * side * side;
  GraphBuilder b(n);
  auto id = [side](NodeId x, NodeId y, NodeId z) { return (x * side + y) * side + z; };
  for (NodeId x = 0; x < side; ++x) {
    for (NodeId y = 0; y < side; ++y) {
      for (NodeId z = 0; z < side; ++z) {
        b.add_edge(id(x, y, z), id((x + 1) % side, y, z));
        b.add_edge(id(x, y, z), id(x, (y + 1) % side, z));
        b.add_edge(id(x, y, z), id(x, y, (z + 1) % side));
      }
    }
  }
  return std::move(b).build(fmt_name("torus3d(side=%u)", side));
}

Graph watts_strogatz(NodeId n, std::uint32_t k, double rewire_p, rng::Engine& eng) {
  assert(k >= 2 && k % 2 == 0);
  assert(k < n);
  assert(rewire_p >= 0.0 && rewire_p <= 1.0);
  GraphBuilder b(n);
  // Ring lattice edges (v, v + j) for j in [1, k/2], each independently
  // rewired to (v, random) with probability rewire_p. Collisions with
  // existing edges or self-loops fall back to keeping the lattice edge —
  // the builder deduplicates, matching the standard construction closely
  // enough for spreading experiments.
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      const NodeId lattice = static_cast<NodeId>((v + j) % n);
      if (rng::uniform01(eng) < rewire_p) {
        const NodeId target = static_cast<NodeId>(rng::uniform_below(eng, n));
        b.add_edge(v, target == v ? lattice : target);
      } else {
        b.add_edge(v, lattice);
      }
    }
  }
  return std::move(b).build(fmt_name("watts_strogatz(n=%u,k=%u,p=%.2f)", n, k, rewire_p));
}

Graph bundle_chain(NodeId len, NodeId width) {
  assert(len >= 1);
  assert(width >= 1);
  // Relays occupy [0, len]; bundle i's helpers occupy
  // [len + 1 + i*width, len + 1 + (i+1)*width).
  const NodeId n = (len + 1) + len * width;
  GraphBuilder b(n);
  for (NodeId i = 0; i < len; ++i) {
    const NodeId first_helper = len + 1 + i * width;
    for (NodeId h = 0; h < width; ++h) {
      b.add_edge(i, first_helper + h);
      b.add_edge(i + 1, first_helper + h);
    }
  }
  return std::move(b).build(fmt_name("bundle_chain(len=%u,w=%u)", len, width));
}

Graph erdos_renyi(NodeId n, double p, rng::Engine& eng) {
  assert(n >= 2);
  assert(p > 0.0 && p <= 1.0);
  GraphBuilder b(n);
  if (p >= 1.0) return complete(n);
  // Geometric skip over the lexicographic pair sequence: each skip is
  // Geom(p), visiting exactly the present edges, O(n + m).
  const std::uint64_t total_pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = rng::geometric(eng, p) - 1;  // first edge position
  while (idx < total_pairs) {
    // Invert idx -> (i, j), i < j, over the row-major upper triangle.
    // Row i starts at offset i*n - i*(i+1)/2 - i ... use incremental search
    // via the quadratic formula for O(1) per edge.
    const double nn = static_cast<double>(n);
    const double fidx = static_cast<double>(idx);
    // Solve i from idx >= i*(2n - i - 1)/2.
    double fi = std::floor(nn - 0.5 - std::sqrt((nn - 0.5) * (nn - 0.5) - 2.0 * fidx));
    auto i = static_cast<std::uint64_t>(std::max(0.0, fi));
    auto row_start = [&](std::uint64_t r) { return r * (2 * n - r - 1) / 2; };
    while (i > 0 && row_start(i) > idx) --i;
    while (row_start(i + 1) <= idx) ++i;
    const std::uint64_t j = i + 1 + (idx - row_start(i));
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    idx += rng::geometric(eng, p);
  }
  return std::move(b).build(fmt_name("erdos_renyi(n=%u,p=%.4f)", n, p));
}

namespace {

/// One configuration-model pairing with local repair: pair stubs uniformly,
/// then remove self-loops and duplicate edges by random double-edge swaps
/// (a,b),(c,d) -> (a,d),(c,b). Plain rejection of the whole pairing has
/// acceptance probability ~ e^{-(d^2-1)/4}, hopeless already for d = 6;
/// swap repair perturbs the uniform distribution only slightly (standard
/// practice for simulation). Returns false if repair failed to converge.
bool try_configuration_model(NodeId n, std::uint32_t d, rng::Engine& eng, GraphBuilder& out) {
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  rng::shuffle(eng, std::span<NodeId>(stubs));

  const std::size_t num_edges = stubs.size() / 2;
  std::vector<std::pair<NodeId, NodeId>> edges(num_edges);
  for (std::size_t i = 0; i < num_edges; ++i) edges[i] = {stubs[2 * i], stubs[2 * i + 1]};

  auto key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  // `seen` holds the keys of *good* edges only; a bad edge (self-loop, or a
  // duplicate whose key is owned by its first occurrence) contributes none.
  // Only membership is ever asked, never iteration order, so a hash set
  // leaves the RNG draws and the resulting edges unchanged.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * num_edges);
  std::vector<std::uint8_t> is_bad(num_edges, 0);
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < num_edges; ++i) {
    const auto [a, b] = edges[i];
    if (a == b || !seen.insert(key(a, b)).second) {
      is_bad[i] = 1;
      bad.push_back(i);
    }
  }

  // Each round, re-wire every bad edge against a uniformly random *good*
  // partner: (a,b),(c,e) -> (a,e),(c,b).
  const std::size_t max_rounds = 100 + 2 * bad.size();
  for (std::size_t round = 0; !bad.empty() && round < max_rounds; ++round) {
    std::vector<std::size_t> still_bad;
    for (const std::size_t i : bad) {
      const std::size_t j = static_cast<std::size_t>(rng::uniform_below(eng, num_edges));
      auto& [a, b] = edges[i];
      auto& [c, e] = edges[j];
      const bool new_edges_ok = a != e && c != b && !seen.contains(key(a, e)) &&
                                !seen.contains(key(c, b)) && key(a, e) != key(c, b);
      if (i == j || is_bad[j] || !new_edges_ok) {
        still_bad.push_back(i);
        continue;
      }
      // Bad edge i owns no key; good partner j owns key(c, e).
      seen.erase(key(c, e));
      std::swap(b, e);
      seen.insert(key(a, b));
      seen.insert(key(c, e));
      is_bad[i] = 0;
    }
    bad = std::move(still_bad);
  }
  if (!bad.empty()) return false;
  for (const auto& [a, b] : edges) out.add_edge(a, b);
  return true;
}

}  // namespace

Graph random_regular(NodeId n, std::uint32_t d, rng::Engine& eng,
                     const RandomRegularOptions& options) {
  assert(d >= 1 && d < n);
  assert((static_cast<std::uint64_t>(n) * d) % 2 == 0 && "n*d must be even");
  for (std::uint32_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    GraphBuilder b(n);
    if (!try_configuration_model(n, d, eng, b)) continue;
    Graph g = std::move(b).build(fmt_name("random_regular(n=%u,d=%u)", n, d));
    if (options.require_connected && !is_connected(g)) continue;
    return g;
  }
  throw std::runtime_error("random_regular: exceeded max_attempts (d too small for connectivity?)");
}

Graph chung_lu(NodeId n, const ChungLuOptions& options, rng::Engine& eng) {
  assert(n >= 2);
  assert(options.beta > 2.0);
  // Weights w_i proportional to (i + i0)^{-1/(beta-1)}, scaled so the mean
  // weight equals average_degree.
  const double gamma = 1.0 / (options.beta - 1.0);
  std::vector<double> w(n);
  double total = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -gamma);
    total += w[i];
  }
  const double scale = options.average_degree * static_cast<double>(n) / total;
  for (auto& wi : w) wi *= scale;
  total *= scale;

  GraphBuilder b(n);
  // Miller-Hagberg style: nodes sorted by descending weight (already true),
  // geometric skipping within each row with the row-max probability, then
  // acceptance by the true probability. O(n + m) in the sparse regime.
  for (NodeId i = 0; i < n; ++i) {
    NodeId j = i + 1;
    double p_row = std::min(1.0, w[i] * w[j == n ? i : j] / total);
    while (j < n && p_row > 0.0) {
      // Skip ahead geometrically with probability p_row.
      const std::uint64_t skip = rng::geometric(eng, p_row) - 1;
      if (j + skip >= n) break;
      j = static_cast<NodeId>(j + skip);
      const double p_true = std::min(1.0, w[i] * w[j] / total);
      if (rng::uniform01(eng) < p_true / p_row) b.add_edge(i, j);
      p_row = p_true;  // weights are non-increasing, so p_true bounds the rest
      ++j;
    }
  }
  return std::move(b).build(
      fmt_name("chung_lu(n=%u,beta=%.2f,avg=%.1f)", n, options.beta, options.average_degree));
}

Graph preferential_attachment(NodeId n, std::uint32_t m, rng::Engine& eng) {
  assert(m >= 1);
  assert(n > m + 1);
  GraphBuilder b(n);
  // Repeated-endpoint list: each edge contributes both endpoints, so a
  // uniform sample from the list is degree-proportional.
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n) * m * 2);
  // Seed: clique on m + 1 nodes.
  for (NodeId i = 0; i <= m; ++i) {
    for (NodeId j = i + 1; j <= m; ++j) {
      b.add_edge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  for (NodeId v = m + 1; v < n; ++v) {
    std::set<NodeId> targets;
    while (targets.size() < m) {
      const NodeId t =
          endpoints[static_cast<std::size_t>(rng::uniform_below(eng, endpoints.size()))];
      targets.insert(t);
    }
    for (NodeId t : targets) {
      b.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return std::move(b).build(fmt_name("preferential_attachment(n=%u,m=%u)", n, m));
}

Graph largest_component(const Graph& g) {
  const auto comp = connected_components(g);
  // Count component sizes, pick the largest.
  std::vector<NodeId> size(comp.num_components, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++size[comp.label[v]];
  const NodeId best =
      static_cast<NodeId>(std::max_element(size.begin(), size.end()) - size.begin());

  std::vector<NodeId> remap(g.num_nodes(), 0);
  NodeId next = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (comp.label[v] == best) remap[v] = next++;
  }
  GraphBuilder b(next);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (comp.label[v] != best) continue;
    for (NodeId w : g.neighbors(v)) {
      if (v < w && comp.label[w] == best) b.add_edge(remap[v], remap[w]);
    }
  }
  return std::move(b).build(g.name() + "|lcc");
}

}  // namespace rumor::graph
