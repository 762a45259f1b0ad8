// rumor/core: the asynchronous rumor-spreading engine (pp-a, push-a, pull-a).
//
// Section 2 of the paper gives three equivalent descriptions of pp-a, all of
// which are implemented here and verified equivalent by the test suite:
//
//   kPerNodeClocks  every node has an independent Poisson clock of rate 1;
//                   on a tick the node contacts a uniformly random neighbor.
//   kPerEdgeClocks  every ordered adjacent pair (v, w) has an independent
//                   Poisson clock of rate 1/deg(v); on a tick v contacts w.
//   kGlobalClock    a single Poisson clock of rate n; on a tick a uniformly
//                   random node contacts a uniformly random neighbor.
//
// The equivalence is the superposition/thinning property of Poisson
// processes plus the memorylessness of the exponential distribution. The
// global-clock view is the fastest (no priority queue) and is the default.
// It draws one uniform u per tick but takes the log of the product of the
// uniforms only when the clock is read (docs/ENGINES.md, "The async global
// clock"): same draws and trajectory as summing -log(u)/n per tick, times
// equal up to rounding. Its tick loop is specialized once per trial on
// (mode, loss, scan kind, probe) and draws from a local copy of the engine,
// written back on return (docs/ENGINES.md, "The two hot loops"): the
// caller sees the same draws, results and final engine state.
#pragma once

#include <functional>

#include "core/protocol.hpp"
#include "core/spread_probe.hpp"
#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Shared knobs (core/trial.hpp): max_ticks caps *steps* here (0 derives
/// ~200 n^2 log n steps, i.e. ~200 n log n time units); message_loss thins
/// contacts exactly like the sync engine; the probe counts every event
/// (a tick of an isolated node as an empty contact). record_history is
/// ignored — the async engine always reports per-node inform times.
/// Dynamics: epochs are `period` time units long and contacts route
/// through the view. Only the global-clock equivalent supports dynamics
/// (the per-node/per-edge heaps pre-draw clock ticks against a fixed
/// adjacency); run_async throws std::runtime_error on other views.
struct AsyncOptions : TrialOptions {
  AsyncView view = AsyncView::kGlobalClock;
};

/// Runs one asynchronous execution from `source`; reports the time (in time
/// units — the measure of Theorems 1 and 2) and the number of steps until
/// all nodes were informed. Precondition: source < g.num_nodes().
[[nodiscard]] AsyncResult run_async(const Graph& g, NodeId source, rng::Engine& eng,
                                    const AsyncOptions& options = {});

/// Called once per inform, in inform order, after the target's time is
/// stamped: `informer` passed the rumor to `target`.
using InformHook = std::function<void(NodeId informer, NodeId target)>;

/// The global-clock view of run_async (options.view is ignored) with an
/// inform hook. Same draws and same result as run_async with
/// AsyncView::kGlobalClock; the informing forest
/// (tests/support/informing_forest.hpp) records its parents through the
/// hook.
[[nodiscard]] AsyncResult run_async_global_clock(const Graph& g, NodeId source,
                                                 rng::Engine& eng, const AsyncOptions& options,
                                                 const InformHook& on_inform);

/// Default step cap used when TrialOptions::max_ticks == 0.
[[nodiscard]] std::uint64_t default_step_cap(NodeId n) noexcept;

}  // namespace rumor::core
