// Test support (namespace rumor::core): the basic push coupling of Section 3 (after Sauerwald [24]).
//
// The paper's upper-bound technique extends this classical coupling: once a
// node v is informed, it contacts the same sequence of neighbors X_{v,1},
// X_{v,2}, ... in both the synchronous push protocol (in rounds r_v + i)
// and the asynchronous push protocol (at its i-th clock tick after t_v).
// Along any informing path v_0 = u, ..., v_l = v the increments satisfy
// E[t_{v_{i+1}} - t_{v_i} | d_i] <= d_i, hence E[t_v] <= E[r_v]: the
// asynchronous push time is dominated in expectation by the synchronous
// one, node by node.
//
// This module executes both processes jointly on one draw of the table and
// returns (r_v, t_v) so tests can observe the domination the paper cites as
// observation (1) of Corollary 3.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

struct PushCoupledRun {
  /// Round each node was informed in synchronous push (r_v).
  std::vector<std::uint64_t> round_push;
  /// Time each node was informed in asynchronous push (t_v).
  std::vector<double> time_push_a;
  bool completed = false;

  [[nodiscard]] std::uint64_t push_rounds() const;
  [[nodiscard]] double push_a_time() const;
};

struct PushCouplingOptions {
  std::uint64_t max_rounds = 0;  // 0: default cap as in run_sync
};

/// Draws one instance of the shared push-target table and runs synchronous
/// and asynchronous push on it. Precondition: g connected, source valid.
[[nodiscard]] PushCoupledRun run_push_coupling(const Graph& g, NodeId source, rng::Engine& eng,
                                               const PushCouplingOptions& options = {});

}  // namespace rumor::core
