// Test support (namespace rumor::sim): run a trial body on the harness's
// worker pool.
//
// The library measures engine kinds through measure_* (one-config
// campaigns). Tests that need a trial body of their own — an engine with
// non-default options, a toy function, a body that throws — run it here,
// on sim::parallel_for and the same per-trial streams derive_stream(seed, i).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rng/rng.hpp"
#include "sim/harness.hpp"

namespace rumor::sim {

/// A trial body: receives the trial index and its private engine, returns
/// the measured value (spreading time in rounds or time units).
using TrialFn = std::function<double(std::uint64_t trial, rng::Engine& eng)>;

/// Runs `config.trials` executions of `fn` in parallel; the result vector is
/// ordered by trial index (deterministic given the seed). Throws
/// std::invalid_argument when config.trials == 0.
[[nodiscard]] std::vector<double> run_trials(const TrialConfig& config, const TrialFn& fn);

}  // namespace rumor::sim
