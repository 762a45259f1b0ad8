#include "sim/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace rumor::sim {

std::vector<double> run_trials(const TrialConfig& config, const TrialFn& fn) {
  // Every caller summarizes the samples, which needs at least one.
  if (config.trials == 0) throw std::invalid_argument("run_trials: trials must be >= 1");
  std::vector<double> results(config.trials, 0.0);

  unsigned workers = config.threads != 0 ? config.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = static_cast<unsigned>(
      std::min<std::uint64_t>(workers, config.trials));

  if (workers == 1) {
    for (std::uint64_t t = 0; t < config.trials; ++t) {
      rng::Engine eng = rng::derive_stream(config.seed, t);
      results[t] = fn(t, eng);
    }
    return results;
  }

  std::atomic<std::uint64_t> next{0};
  // First exception thrown by any trial, rethrown on the caller's thread
  // after the pool drains (letting it escape a worker would terminate).
  std::exception_ptr error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::uint64_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= config.trials) return;
      try {
        rng::Engine eng = rng::derive_stream(config.seed, t);
        results[t] = fn(t, eng);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(config.trials, std::memory_order_relaxed);  // drain fast
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return results;
}

SpreadingTimeSample::SpreadingTimeSample(std::vector<double> samples)
    : samples_(std::move(samples)) {
  assert(!samples_.empty());
  std::sort(samples_.begin(), samples_.end());
  for (double x : samples_) moments_.add(x);
}

double SpreadingTimeSample::median() const { return quantile(0.5); }

double SpreadingTimeSample::quantile(double p) const {
  return stats::quantile_sorted(samples_, p);
}

stats::BootstrapInterval SpreadingTimeSample::mean_ci(double confidence, std::size_t resamples,
                                                      std::uint64_t seed) const {
  return stats::bootstrap_mean_ci(samples_, confidence, resamples, seed);
}

// The measure_* wrappers all route through core::run_trial — the same
// dispatch the campaign scheduler uses — so an engine keeps exactly one
// option-assembly path. Each keeps its historical engine-specific error
// text (the cap name differs per engine).
namespace {

SpreadingTimeSample measure_trial(core::EngineKind kind, const Graph& g, NodeId source,
                                  const TrialConfig& config, const core::TrialOptions& options,
                                  const core::TrialExtras& extras, const char* cap_error) {
  auto samples = run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
    const auto outcome = core::run_trial(kind, g, source, eng, options, extras);
    if (!outcome.completed) throw std::runtime_error(cap_error);
    return outcome.value;
  });
  return SpreadingTimeSample(std::move(samples));
}

}  // namespace

SpreadingTimeSample measure_sync(const Graph& g, NodeId source, core::Mode mode,
                                 const TrialConfig& config) {
  core::TrialOptions options;
  options.mode = mode;
  return measure_trial(core::EngineKind::kSync, g, source, config, options, {},
                       "run_sync: execution hit the round cap (disconnected graph?)");
}

SpreadingTimeSample measure_async(const Graph& g, NodeId source, core::Mode mode,
                                  const TrialConfig& config, core::AsyncView view) {
  core::TrialOptions options;
  options.mode = mode;
  core::TrialExtras extras;
  extras.view = view;
  return measure_trial(core::EngineKind::kAsync, g, source, config, options, extras,
                       "run_async: execution hit the step cap (disconnected graph?)");
}

SpreadingTimeSample measure_aux(const Graph& g, NodeId source, core::AuxKind kind,
                                const TrialConfig& config) {
  core::TrialOptions options;
  core::TrialExtras extras;
  extras.aux = kind;
  return measure_trial(core::EngineKind::kAux, g, source, config, options, extras,
                       "run_aux: execution hit the round cap (disconnected graph?)");
}

}  // namespace rumor::sim
