// rumor/graph: expansion parameters of a graph.
//
// The paper notes (after Theorem 1) that its upper bound makes known
// synchronous push-pull bounds carry over to the asynchronous model — in
// particular the conductance bound T(pp) = O(log n / phi) [6, 17] and the
// vertex-expansion bound T(pp) = O(log^2 n / alpha) [18]. This module
// estimates the conductance phi(G) = min over cuts S of
// cut(S) / min(vol(S), vol(V-S)) by a sweep over spectral-ordering
// prefixes, so bench E10 can verify the transferred conductance bound
// empirically.
//
// Exact conductance and vertex expansion by subset enumeration (O(2^n),
// small graphs only) are the tests' ground truth:
// tests/support/graph_oracles.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace rumor::graph {

/// Conductance upper estimate by a spectral sweep: order vertices by the
/// second eigenvector of the lazy random walk (computed by power
/// iteration), scan prefix cuts, return the best. Cheeger's inequality
/// guarantees the result is within sqrt-factors of the truth:
///   phi(G)^2 / 2 <= gap <= 2 * phi_sweep.
[[nodiscard]] double conductance_sweep(const Graph& g);

/// The sweep-cut vertex ordering used by conductance_sweep (exposed for
/// inspection and testing): vertices sorted by their second-eigenvector
/// entry, computed by power iteration.
[[nodiscard]] std::vector<NodeId> spectral_order(const Graph& g,
                                                 std::uint32_t iterations = 2000);

}  // namespace rumor::graph
