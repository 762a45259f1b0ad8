// rumor/graph: generators for every topology the paper discusses.
//
// Deterministic families: complete, star, double-star, path, cycle, torus
// grid, hypercube, complete binary tree, lollipop, barbell, and the
// chain-of-stars "gap" family standing in for the Acan et al. construction
// (the paper cites that graph without giving it; bundle_chain below states
// the mechanism the stand-ins reproduce).
//
// Random families (all take an engine; connectivity is the caller's check):
// Erdos-Renyi G(n, p), random d-regular (configuration model with rejection
// and connectivity retry), Chung-Lu power-law, Barabasi-Albert preferential
// attachment.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace rumor::graph {

// --- Deterministic families ------------------------------------------------

/// K_n: every pair adjacent. Regular. Sync pp completes in O(log n) rounds.
[[nodiscard]] Graph complete(NodeId n);

/// Star S_n: node 0 is the hub, nodes 1..n-1 are leaves. The paper's
/// separating example: sync pp <= 2 rounds, async pp = Theta(log n).
[[nodiscard]] Graph star(NodeId n);

/// Double star: two hubs joined by an edge, each with (n-2)/2 leaves.
/// A classic sync-fast / async-slow topology used by E4.
[[nodiscard]] Graph double_star(NodeId n);

/// Path P_n: 0 - 1 - ... - n-1. Diameter n-1; spreading time Theta(n).
[[nodiscard]] Graph path(NodeId n);

/// Cycle C_n. 2-regular; spreading time Theta(n).
[[nodiscard]] Graph cycle(NodeId n);

/// 2-D torus of side `side` (n = side^2). 4-regular, diameter Theta(side).
[[nodiscard]] Graph torus(NodeId side);

/// Hypercube Q_d on n = 2^d nodes; node ids are bit strings, neighbors
/// differ in one bit. The topology where pp-a is Richardson's model.
[[nodiscard]] Graph hypercube(std::uint32_t dimension);

/// Complete binary tree with n nodes (heap indexing).
[[nodiscard]] Graph complete_binary_tree(NodeId n);

/// Lollipop: clique on `clique_size` nodes with a path of `path_len` nodes
/// attached. Mixes a fast expander with a slow tail.
[[nodiscard]] Graph lollipop(NodeId clique_size, NodeId path_len);

/// Barbell: two cliques of `clique_size` joined by a path of `path_len`.
[[nodiscard]] Graph barbell(NodeId clique_size, NodeId path_len);

/// Chain of stars: `hubs` hub nodes in a path, hub i joined to hub i+1, and
/// each hub dressed with `leaves_per_hub` pendant leaves. Sync and async
/// push-pull both pay ~deg/2 per chain hop here (the per-edge contact rates
/// coincide), making this a *null* family for the sync/async gap — used by
/// E4 as the control row and by E6 as a high-degree-relay stress case.
[[nodiscard]] Graph chain_of_stars(NodeId hubs, NodeId leaves_per_hub);

/// Bundle chain (the "Acan gap" family, run by e4_theorem2): relay nodes
/// r_0 .. r_{len} in a chain where consecutive relays are joined through
/// `width` parallel helper nodes (each helper adjacent to both relays; no
/// direct relay-relay edge).
///
/// Asynchronously, once r_i is informed, helpers pull from it (each at rate
/// 1/2), and every informed helper pushes to r_{i+1} at rate 1/2 — a
/// combined rate that grows linearly with the informed-helper count, so the
/// hop is crossed in Theta(1/sqrt(width)) expected time. Synchronously the
/// round barrier caps progress at one hop per round (and in fact ~2 rounds
/// per hop), so T(pp) = Theta(len) while T(pp-a) = O(len/sqrt(width) +
/// log n). With width ~ len^2 this realizes the polynomial sync/async gap
/// of Acan et al. (up to Theta(n^{1/3}) as len^3 ~ n), which Theorem 2
/// bounds by O(sqrt(n)).
[[nodiscard]] Graph bundle_chain(NodeId len, NodeId width);

/// Wheel W_n: a hub adjacent to every rim node, rim nodes in a cycle.
/// Interpolates between star (hub shortcuts) and cycle (local links).
[[nodiscard]] Graph wheel(NodeId n);

/// Complete bipartite K_{a,b}: sides [0, a) and [a, a+b). K_{1,n-1} is the
/// star; balanced sides give a dense 2-round spreader.
[[nodiscard]] Graph complete_bipartite(NodeId a, NodeId b);

/// 3-D torus of side `side` (n = side^3), 6-regular.
[[nodiscard]] Graph torus3d(NodeId side);

// --- Random families ---------------------------------------------------------

/// Watts-Strogatz small world: a ring lattice where each node links to its
/// `k/2` nearest neighbors per side, with each edge's far endpoint rewired
/// to a uniform node with probability `rewire_p`. Interpolates cycle
/// (p = 0, spreading Theta(n)) to near-random (p = 1, Theta(log n)).
/// Precondition: k even, 2 <= k < n.
[[nodiscard]] Graph watts_strogatz(NodeId n, std::uint32_t k, double rewire_p, rng::Engine& eng);

/// Erdos-Renyi G(n, p): each pair independently an edge. For connectivity
/// w.h.p. choose p >= (1 + eps) ln n / n. O(n^2) for p >= ~1/n; uses the
/// geometric skip method for sparse p, O(n + m).
[[nodiscard]] Graph erdos_renyi(NodeId n, double p, rng::Engine& eng);

/// Random d-regular graph by the configuration model: pair up n*d stubs
/// uniformly, reject self-loops/multi-edges, retry until simple (and
/// optionally connected). Precondition: n*d even, d < n.
struct RandomRegularOptions {
  bool require_connected = true;
  std::uint32_t max_attempts = 1000;
};
[[nodiscard]] Graph random_regular(NodeId n, std::uint32_t d, rng::Engine& eng,
                                   const RandomRegularOptions& options = {});

/// Chung-Lu graph with expected power-law degrees: node i gets weight
/// w_i = c * (i + i0)^{-1/(beta-1)}; edge {i,j} appears independently with
/// probability min(1, w_i w_j / sum_w). beta in (2, 3) models social
/// networks (the regime where async pp beats sync pp per [16], [9]).
struct ChungLuOptions {
  double beta = 2.5;          // power-law exponent
  double average_degree = 8;  // scales the weights
};
[[nodiscard]] Graph chung_lu(NodeId n, const ChungLuOptions& options, rng::Engine& eng);

/// Barabasi-Albert preferential attachment: start from a small clique, each
/// new node attaches `edges_per_node` edges to existing nodes chosen
/// proportional to degree (by the repeated-endpoint trick, O(m)).
[[nodiscard]] Graph preferential_attachment(NodeId n, std::uint32_t edges_per_node,
                                            rng::Engine& eng);

/// Extracts the largest connected component as its own graph (node ids are
/// re-labelled densely, order preserved). Random families use this to
/// guarantee the connectivity precondition of the spreading processes.
[[nodiscard]] Graph largest_component(const Graph& g);

}  // namespace rumor::graph
