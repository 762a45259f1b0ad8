// rumor/core: trial lanes — up to eight sync or global-clock async trials at
// once, one per 64-bit lane of an AVX-512 vector.
//
// A campaign block runs many independent trials of one cell, each on its
// own engine derive_stream(seed, t). The scalar loops sit near their draw
// floor (docs/ENGINES.md, "The two hot loops"), so this engine runs the
// trials side by side instead: the eight xoshiro256++ states live in four
// zmm registers, one trial per lane, and every vector step makes, for each
// lane, exactly the draw and the floating-point operation the scalar engine
// makes for that trial at that step.
//
// Equality contract — per-trial bit-identity: trial i run on engines[i]
// returns the value, tick count and completed flag of run_trial(kind, g,
// source, engines[i], options, extras), and leaves engines[i] in the same
// final state. Which lane a trial lands on, and what the other lanes do
// meanwhile, cannot change either (tests/test_trial_lanes.cpp).
//
// Eligibility: the sync engine, or the async engine with the global-clock
// view; no dynamics view, probe, history or message loss; and a CPU with
// AVX-512F/DQ/VL/BW (checked at runtime). Everything else — and every CPU
// without AVX-512 — takes the scalar engines, which this file leaves
// untouched. docs/ENGINES.md ("Trial lanes") has the design.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Trials in flight at once: one per 64-bit lane of a 512-bit vector.
inline constexpr std::size_t kLaneWidth = 8;

/// The fewest trials a block needs before schedulers run it on lanes: two
/// per lane. A vector step costs the same with one live lane or eight, so
/// a block's lanes run until its slowest trial ends. With one trial per
/// lane, a heavy-tailed cell loses that race: on async double_star, whose
/// bridge crossing takes an exponential time, blocks of 7 and 8 trials ran
/// at 0.86-1.05x of the scalar loop. From two trials per lane every
/// eligible family measured faster on lanes (1.3x and up at 16 trials).
/// Smaller blocks take the scalar loop.
inline constexpr std::size_t kMinLaneTrials = 2 * kLaneWidth;

/// True when the running CPU supports AVX-512F, DQ, VL and BW.
[[nodiscard]] bool trial_lanes_supported() noexcept;

/// True when run_trial_lanes can run trials of (kind, options, extras) on
/// this CPU: see the eligibility rule above.
[[nodiscard]] bool lanes_eligible(EngineKind kind, const TrialOptions& options,
                                  const TrialExtras& extras) noexcept;

/// Runs one trial per engine from `source`: trial i on engines[i], which
/// is left in the trial's final state. Returns the outcomes in engine
/// order; their per-node vectors (history, inform times) stay empty.
/// Capped trials return completed == false, as run_trial does. Throws
/// std::invalid_argument unless lanes_eligible(kind, options, extras).
/// Any number of engines works: a lane that finishes takes the next
/// trial, and lanes left without one idle until the block ends.
[[nodiscard]] std::vector<TrialOutcome> run_trial_lanes(EngineKind kind, const Graph& g,
                                                        NodeId source,
                                                        std::span<rng::Engine> engines,
                                                        const TrialOptions& options = {},
                                                        const TrialExtras& extras = {});

}  // namespace rumor::core
