// rumor/core: time-sliced approximation of the asynchronous protocol.
//
// Ablation substrate for a design choice of the engines (docs/ENGINES.md):
// the library simulates pp-a exactly (event-driven, exponential gaps); the
// common alternative in simulation codebases slices time into steps of
// width dt and runs each slice like a synchronous round with Poisson
// participation:
//
//   per slice, K ~ Poisson(n * dt) contacts are drawn (uniform caller,
//   uniform neighbor) and evaluated against the slice-start informed set.
//
// As dt -> 0 this converges in law to pp-a (each slice holds at most one
// relevant contact with probability -> 1); at coarse dt it inherits
// synchronous-like simultaneity and misses intra-slice relaying chains.
// bench_e12_discretization quantifies the bias-vs-cost trade-off against
// the exact engine; the test suite checks convergence by KS distance.
#pragma once

#include "core/protocol.hpp"
#include "core/spread_probe.hpp"
#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Shared knobs (core/trial.hpp): mode and probe are honored — contacts
/// classify against the slice-start informed set, with the slice as the
/// freshness window (a second contact reaching the same node within one
/// slice is wasted). The cap is by simulated *time* (max_time below), not
/// ticks; the other shared fields are ignored (the ablation studies the
/// plain lossless single-source model).
struct DiscretizedOptions : TrialOptions {
  /// Slice width in time units. Smaller is more accurate and slower.
  double dt = 0.1;
  /// Abort after this much simulated time; 0 derives a cap from n.
  double max_time = 0.0;
};

/// Runs the time-sliced approximation from `source`. Reported inform times
/// are slice-end timestamps — quantized to multiples of dt by construction.
[[nodiscard]] AsyncResult run_async_discretized(const Graph& g, NodeId source, rng::Engine& eng,
                                                const DiscretizedOptions& options = {});

}  // namespace rumor::core
