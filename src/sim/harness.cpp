#include "sim/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/campaign.hpp"

namespace rumor::sim {

void parallel_for(std::uint64_t count, unsigned threads,
                  const std::function<void(std::uint64_t)>& body) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  const auto workers = std::min<std::uint64_t>(std::max(threads, 1u), count);
  std::atomic<std::uint64_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto drain = [&] {
    for (std::uint64_t i = next++; i < count; i = next++) {
      try {
        body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        next = count;  // hand out no further index
        return;
      }
    }
  };
  std::vector<std::thread> helpers;
  for (std::uint64_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  drain();
  for (std::thread& h : helpers) h.join();
  if (error) std::rethrow_exception(error);
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

namespace {

/// Runs `cfg` as a one-config campaign; its summary's values are exactly
/// the per-trial values a serial run_trial loop on derive_stream(seed, t)
/// yields.
SpreadingTimeSample measure(CampaignConfig cfg, NodeId source, const TrialConfig& config) {
  // The campaign refuses a 0-trial config with a runtime_error; the
  // harness contract is invalid_argument.
  if (config.trials == 0) throw std::invalid_argument("measure: trials must be >= 1");
  cfg.source = source;
  CampaignOptions options;
  options.threads = config.threads;
  return SpreadingTimeSample(run_campaign({cfg}, options).front().summary.values());
}

}  // namespace

SpreadingTimeSample measure_sync(const Graph& g, NodeId source, core::Mode mode,
                                 const TrialConfig& config) {
  return measure(borrowed_config(g, "sync", EngineKind::kSync, mode, config.trials, config.seed),
                 source, config);
}

SpreadingTimeSample measure_async(const Graph& g, NodeId source, core::Mode mode,
                                  const TrialConfig& config, core::AsyncView view) {
  CampaignConfig cfg =
      borrowed_config(g, "async", EngineKind::kAsync, mode, config.trials, config.seed);
  cfg.view = view;
  return measure(std::move(cfg), source, config);
}

SpreadingTimeSample measure_aux(const Graph& g, NodeId source, core::AuxKind kind,
                                const TrialConfig& config) {
  CampaignConfig cfg = borrowed_config(g, "aux", EngineKind::kAux, core::Mode::kPushPull,
                                       config.trials, config.seed);
  cfg.aux = kind;
  return measure(std::move(cfg), source, config);
}

}  // namespace rumor::sim
