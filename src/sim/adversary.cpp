#include "sim/adversary.hpp"

#include <cassert>

#include "sim/campaign.hpp"

namespace rumor::sim {

namespace {

/// Both searches are one-configuration race campaigns: the screen and
/// refine passes run as trial blocks on a campaign queue, which makes the
/// raced source and its refined statistics bit-identical for any thread
/// count — and identical to what `rumor_bench --campaign` reports for a
/// `source: "race"` configuration with the same parameters (verified in
/// tests/test_campaign.cpp).
WorstSourceResult race(const Graph& g, EngineKind engine, core::Mode mode,
                       const WorstSourceOptions& options) {
  assert(g.num_nodes() >= 2);
  CampaignConfig cfg =
      borrowed_config(g, "race", engine, mode, options.final_trials, options.seed);
  cfg.source_policy = SourcePolicy::kRace;
  cfg.race.screen_trials = options.screen_trials;
  cfg.race.finalists = options.finalists;
  cfg.race.final_trials = options.final_trials;
  cfg.race.max_candidates = options.max_candidates;

  const auto results = run_campaign({cfg}, {});
  const CampaignResult& r = results.front();
  WorstSourceResult out;
  out.source = r.source;
  out.mean_time = r.summary.mean();
  out.best_source = r.best_source;
  out.best_mean_time = r.best_mean;
  return out;
}

}  // namespace

WorstSourceResult find_worst_source_sync(const Graph& g, core::Mode mode,
                                         const WorstSourceOptions& options) {
  return race(g, EngineKind::kSync, mode, options);
}

WorstSourceResult find_worst_source_async(const Graph& g, core::Mode mode,
                                          const WorstSourceOptions& options) {
  return race(g, EngineKind::kAsync, mode, options);
}

}  // namespace rumor::sim
