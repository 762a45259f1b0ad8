// rumor/sim: single-configuration Monte-Carlo measurement harness.
//
// The paper's quantities are distributional: E[T(alpha, G, u)] (Theorem 2)
// and the high-probability time T_q(alpha, G, u) = min{t : Pr[T <= t] >=
// 1 - q} (Theorem 1, with q = 1/n). The harness estimates both by repeated
// independent executions:
//
//   * each trial runs on its own engine, derived as derive_stream(seed,
//     trial_index) — results are bit-reproducible regardless of thread count
//     or scheduling;
//   * estimates carry bootstrap confidence intervals on request.
//
// Scope note: this is the *one-configuration* face of the campaign
// scheduler (sim/campaign.hpp). The measure_* wrappers are one-config
// campaigns whose reservoir keeps every sample, so they share the
// scheduler's trial loop, trial lanes, and tick-cap rule, and hand back the
// full sorted sample for the structural benches (e3/e7/e10/e12/e14) and the
// examples that study a single graph in depth. run_trials remains for trial
// bodies that are not engine kinds (e12's discretized engine, tests), on
// the same parallel_for the campaign's report rendering uses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/async.hpp"
#include "core/aux_process.hpp"
#include "core/protocol.hpp"
#include "core/sync.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"

namespace rumor::sim {

using core::Graph;
using core::NodeId;

struct TrialConfig {
  /// Number of independent executions.
  std::uint64_t trials = 200;
  /// Root seed; trial i uses rng::derive_stream(seed, i).
  std::uint64_t seed = 1;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Calls body(i) for every i in [0, count) on up to `threads` threads (0 =
/// hardware concurrency), the calling thread among them; threads == 1 runs
/// the loop serially on the caller. The first exception a body throws stops
/// the handing out of further indices and is rethrown to the caller once
/// every thread has finished.
void parallel_for(std::uint64_t count, unsigned threads,
                  const std::function<void(std::uint64_t)>& body);

/// A trial body: receives the trial index and its private engine, returns
/// the measured value (spreading time in rounds or time units).
using TrialFn = std::function<double(std::uint64_t trial, rng::Engine& eng)>;

/// Runs `config.trials` executions of `fn` in parallel; the result vector is
/// ordered by trial index (deterministic given the seed). Throws
/// std::invalid_argument when config.trials == 0.
[[nodiscard]] std::vector<double> run_trials(const TrialConfig& config, const TrialFn& fn);

/// Samples of one protocol's spreading time plus derived estimates.
class SpreadingTimeSample {
 public:
  explicit SpreadingTimeSample(std::vector<double> samples);

  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] double mean() const noexcept { return moments_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return moments_.stddev(); }
  [[nodiscard]] double stderr_mean() const noexcept { return moments_.stderr_mean(); }
  [[nodiscard]] double min() const noexcept { return moments_.min(); }
  [[nodiscard]] double max() const noexcept { return moments_.max(); }
  [[nodiscard]] double median() const;

  /// Empirical quantile at probability p.
  [[nodiscard]] double quantile(double p) const;

  /// The paper's T_q: the smallest t such that a fraction >= 1 - q of trials
  /// finished by t. With q = 1/n this is the high-probability spreading
  /// time; it needs >= 1/q samples to be meaningful, so callers with large n
  /// typically fix q = 1/trials instead (documented in EXPERIMENTS.md).
  [[nodiscard]] double hp_time(double q) const { return quantile(1.0 - q); }

  [[nodiscard]] stats::BootstrapInterval mean_ci(double confidence = 0.95,
                                                 std::size_t resamples = 400,
                                                 std::uint64_t seed = 7) const;

 private:
  std::vector<double> samples_;        // sorted
  stats::RunningMoments moments_;
};

// ---------------------------------------------------------------------------
// One-call measurements for the protocols under study.
// ---------------------------------------------------------------------------

// Each runs one campaign configuration over `g` (borrowed for the call) from
// `source`, keeping every trial's value; trial t runs on derive_stream(
// config.seed, t). All throw std::invalid_argument when config.trials == 0,
// and rethrow the campaign's error when a trial hits its engine's tick cap.

/// Spreading time (rounds) of the synchronous protocol in `mode`.
[[nodiscard]] SpreadingTimeSample measure_sync(const Graph& g, NodeId source, core::Mode mode,
                                               const TrialConfig& config);

/// Spreading time (time units) of the asynchronous protocol in `mode`.
[[nodiscard]] SpreadingTimeSample measure_async(const Graph& g, NodeId source, core::Mode mode,
                                                const TrialConfig& config,
                                                core::AsyncView view = core::AsyncView::kGlobalClock);

/// Spreading time (rounds) of the auxiliary process ppx or ppy.
[[nodiscard]] SpreadingTimeSample measure_aux(const Graph& g, NodeId source, core::AuxKind kind,
                                              const TrialConfig& config);

}  // namespace rumor::sim
