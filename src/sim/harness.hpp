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
//   * trials are distributed over a worker pool via an atomic work index;
//   * estimates carry bootstrap confidence intervals on request.
//
// Scope note: this is the *one-configuration* path — it materializes every
// sample and drains its own thread pool, which is exactly right for the
// structural benches (e3/e6/e7/e10/e12/e14) and the examples that study a
// single graph in depth. Anything shaped like a sweep — many (graph,
// engine, mode, source) cells — belongs on sim/campaign.hpp, which
// schedules all cells over one shared block queue and reduces each to a
// constant-size streaming summary; the former sweep experiments (e1, e2,
// e4, e5, e8, e11, e13, e15) all run there.
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
