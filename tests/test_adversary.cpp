// Tests for the worst-case-source search (a one-config SourcePolicy::kRace
// campaign) and for the campaign-native size-sweep pattern that replaced
// the retired sim/sweep module: build one configuration per size, run them
// over the shared block queue, and fit growth laws on the resulting means
// with stats/regression directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rumor.hpp"
#include "sim/campaign.hpp"
#include "stats/regression.hpp"

using namespace rumor;

// --- Campaign-native size sweeps ---------------------------------------------

namespace {

/// One (size -> mean spreading time) curve measured as a campaign: the
/// idiom every retired run_size_sweep call site migrates to.
std::vector<std::pair<double, double>> campaign_size_curve(sim::EngineKind engine,
                                                           std::uint64_t trials,
                                                           std::uint64_t seed) {
  std::vector<sim::CampaignConfig> configs;
  for (const std::uint64_t n : {128u, 512u, 2048u}) {
    sim::CampaignConfig cfg;
    cfg.graph.family = "star";
    cfg.graph.n = n;
    cfg.engine = engine;
    cfg.source = 1;
    cfg.trials = trials;
    cfg.seed = seed;
    configs.push_back(std::move(cfg));
  }
  const auto results = sim::run_campaign(configs, {});
  std::vector<std::pair<double, double>> curve;
  for (const auto& r : results) {
    curve.emplace_back(static_cast<double>(r.n), r.summary.mean());
  }
  return curve;
}

}  // namespace

TEST(CampaignSizeSweep, StarLawsEndToEnd) {
  // The E3 star laws, measured through the campaign path: async push-pull
  // grows ~ ln n, sync push-pull is bounded (2 rounds from a leaf).
  const auto async_curve = campaign_size_curve(sim::EngineKind::kAsync, 120, 1234);
  std::vector<double> x;
  std::vector<double> y;
  for (const auto& [n, mean] : async_curve) {
    x.push_back(n);
    y.push_back(mean);
  }
  const auto fit = stats::fit_logarithmic(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 0.35);  // ~ ln n growth
  EXPECT_GT(fit.r_squared, 0.97);

  const auto sync_curve = campaign_size_curve(sim::EngineKind::kSync, 60, 1235);
  double lo = sync_curve.front().second;
  double hi = lo;
  for (const auto& [n, mean] : sync_curve) {
    lo = std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  EXPECT_LE(hi / lo, 1.05);  // constant at 2
}

TEST(CampaignSizeSweep, PowerLawFitRecoversLinearGrowth) {
  // The regression plumbing the sweep module used to wrap, exercised on a
  // campaign-shaped curve with a known exact law (path graphs: m = n - 1).
  std::vector<double> x;
  std::vector<double> y;
  for (const std::uint64_t n : {64u, 128u, 256u, 512u}) {
    sim::GraphSpec spec;
    spec.family = "path";
    spec.n = n;
    const auto g = sim::build_graph(spec, 1);
    x.push_back(static_cast<double>(g.num_nodes()));
    y.push_back(3.0 * static_cast<double>(g.num_nodes()));
  }
  const auto fit = stats::fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

// --- Worst-case source -----------------------------------------------------------

namespace {

/// The worst-source search: a one-config SourcePolicy::kRace campaign over
/// the caller's graph, `trials` refinement trials per finalist.
sim::CampaignResult race(const graph::Graph& g, sim::EngineKind engine,
                         const sim::SourceRaceOptions& options, std::uint64_t trials = 100,
                         std::uint64_t seed = 1) {
  sim::CampaignConfig cfg =
      sim::borrowed_config(g, "race", engine, core::Mode::kPushPull, trials, seed);
  cfg.source_policy = sim::SourcePolicy::kRace;
  cfg.race = options;
  return sim::run_campaign({cfg}, {}).front();
}

}  // namespace

TEST(WorstSource, FindsLollipopTailEnd) {
  // On a lollipop the slowest sync source is deep in the tail (the rumor
  // must cross the whole path before the clique amplifies it)... actually
  // any source must traverse the path; the worst is at the tail tip, the
  // best inside the clique. The search must rank them in that order.
  const auto g = graph::lollipop(24, 24);  // tail tip = node 47
  sim::SourceRaceOptions opts;
  opts.max_candidates = 0;  // screen everything: n = 48 is small
  opts.screen_trials = 8;
  const auto result = race(g, sim::EngineKind::kSync, opts, 40);
  // Worst source lies in the far half of the tail.
  EXPECT_GE(result.source, 36u) << "worst=" << result.source;
  EXPECT_GT(result.summary.mean(), result.best_mean);
}

TEST(WorstSource, StarSourcesAreNearlyEquivalentSync) {
  // Sync pp on the star: hub takes 1 round, leaves take 2 — the gap is
  // tiny; the search must report a small worst/best spread.
  const auto g = graph::star(64);
  sim::SourceRaceOptions opts;
  opts.max_candidates = 16;
  const auto result = race(g, sim::EngineKind::kSync, opts);
  EXPECT_LE(result.summary.mean(), 2.05);
  EXPECT_GE(result.best_mean, 0.95);
}

TEST(WorstSource, AsyncSearchRunsAndOrdersFinalists) {
  const auto g = graph::double_star(64);
  sim::SourceRaceOptions opts;
  opts.max_candidates = 12;
  const auto result = race(g, sim::EngineKind::kAsync, opts, 60);
  EXPECT_GE(result.summary.mean(), result.best_mean);
  EXPECT_LT(result.source, g.num_nodes());
}

TEST(WorstSource, DeterministicGivenSeed) {
  const auto g = graph::barbell(10, 6);
  const auto a = race(g, sim::EngineKind::kSync, {}, 100, 99);
  const auto b = race(g, sim::EngineKind::kSync, {}, 100, 99);
  EXPECT_EQ(a.source, b.source);
  EXPECT_DOUBLE_EQ(a.summary.mean(), b.summary.mean());
}
