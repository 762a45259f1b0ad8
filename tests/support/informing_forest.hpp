// Test support (namespace rumor::core): informing forests — who informed whom.
//
// Both of the paper's proofs argue along *informing paths* pi_v = v_0 = u,
// v_1, ..., v_l = v, where v_{i+1} first receives the rumor from v_i
// (Lemmas 9/10 decompose r_v over such a path). This module re-runs the
// synchronous or asynchronous protocol while recording each node's
// informer, yielding the informing forest (a spanning tree of the informed
// set, rooted at the source) plus per-node path lengths. Tests use it to
// study path-length distributions and to validate that the engines'
// exchanges are structurally consistent (informer is adjacent,
// informed earlier, and reachable from the source).
#pragma once

#include <cstdint>
#include <vector>

#include "core/async.hpp"
#include "core/protocol.hpp"
#include "core/sync.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Sentinel parent for the source (and never-informed nodes).
inline constexpr NodeId kNoParent = static_cast<NodeId>(-1);

/// A spanning tree of "v was first informed by parent[v]".
struct InformingForest {
  std::vector<NodeId> parent;
  /// True if the recorded execution informed every node.
  bool completed = false;

  /// Number of informing hops from the source to v (0 for the source).
  /// Precondition: v was informed.
  [[nodiscard]] std::uint32_t path_length(NodeId v) const;

  /// Maximum path length over all informed nodes — the depth of the
  /// informing tree (the `l` in the paper's path decompositions).
  [[nodiscard]] std::uint32_t depth() const;
};

/// Runs the synchronous protocol recording informers.
/// The returned SyncResult matches run_sync with the same engine state.
struct SyncForestRun {
  SyncResult result;
  InformingForest forest;
};
[[nodiscard]] SyncForestRun run_sync_with_forest(const Graph& g, NodeId source, rng::Engine& eng,
                                                 const SyncOptions& options = {});

/// Runs the asynchronous protocol (global-clock view) recording informers.
/// The returned AsyncResult matches run_async's global-clock view with the
/// same engine state: it is run_async_global_clock with a parent-recording
/// hook.
struct AsyncForestRun {
  AsyncResult result;
  InformingForest forest;
};
[[nodiscard]] AsyncForestRun run_async_with_forest(const Graph& g, NodeId source, rng::Engine& eng,
                                                   const AsyncOptions& options = {});

}  // namespace rumor::core
