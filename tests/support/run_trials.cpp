#include "support/run_trials.hpp"

#include <stdexcept>

namespace rumor::sim {

std::vector<double> run_trials(const TrialConfig& config, const TrialFn& fn) {
  // Every caller summarizes the samples, which needs at least one.
  if (config.trials == 0) throw std::invalid_argument("run_trials: trials must be >= 1");
  std::vector<double> results(config.trials, 0.0);
  parallel_for(config.trials, config.threads, [&](std::uint64_t t) {
    rng::Engine eng = rng::derive_stream(config.seed, t);
    results[t] = fn(t, eng);
  });
  return results;
}

}  // namespace rumor::sim
