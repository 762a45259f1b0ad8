// E5 (Fig. 4): regular graphs — Corollary 3 and the 2x distributional law.
//
// (a) Corollary 3: on any connected regular graph, sync push and sync
//     push-pull have the same high-probability spreading time up to
//     constants: T_p = Theta(T_pp).
// (b) Observation (2) of Section 1: on regular graphs, T(push-a) has the
//     same distribution as 2 * T(pp-a). We verify with a two-sample KS
//     statistic between push-a samples and doubled pp-a samples.
//
// Runs on the campaign scheduler: the four protocol cells of every graph
// share one trial-block queue. Campaign summaries keep every trial value,
// so the high-probability times are exact order statistics and the KS
// statistic reads the full empirical CDFs.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "dist/distributions.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  rng::Engine gen_eng = rng::derive_stream(5001, 0);

  std::vector<std::shared_ptr<const graph::Graph>> graphs;
  auto keep = [&graphs](graph::Graph g) {
    graphs.push_back(std::make_shared<const graph::Graph>(std::move(g)));
  };
  keep(graph::cycle(256));
  keep(graph::torus(16));
  keep(graph::hypercube(8));
  keep(graph::hypercube(10));
  keep(graph::random_regular(256, 4, gen_eng));
  keep(graph::random_regular(1024, 6, gen_eng));
  keep(graph::complete(256));

  const auto config = ctx.trial_config(300, 5002);
  const double q = 1.0 - 1.0 / static_cast<double>(config.trials);

  // Four protocol cells per graph, in a fixed order the row assembly below
  // indexes into: sync push, sync pp, async push, async pp. The async pp
  // cell runs on an offset seed (not a second ctx.seed default) so the two
  // async samples stay on distinct RNG streams under a --seed override —
  // the KS noise floor below assumes independent samples.
  struct Cell {
    sim::EngineKind engine;
    core::Mode mode;
    std::uint64_t seed;
  };
  const Cell kCells[] = {
      {sim::EngineKind::kSync, core::Mode::kPush, config.seed},
      {sim::EngineKind::kSync, core::Mode::kPushPull, config.seed},
      {sim::EngineKind::kAsync, core::Mode::kPush, config.seed},
      {sim::EngineKind::kAsync, core::Mode::kPushPull, ctx.seed(5002) + 1},
  };

  std::vector<sim::CampaignConfig> cells;
  cells.reserve(graphs.size() * 4);
  for (const auto& g : graphs) {
    for (const Cell& c : kCells) {
      sim::CampaignConfig cell;
      cell.id = g->name() + std::string("_") + sim::engine_name(c.engine) + "_" +
                core::mode_name(c.mode);
      cell.prebuilt = g;
      cell.engine = c.engine;
      cell.mode = c.mode;
      cell.trials = config.trials;
      cell.seed = c.seed;
      cells.push_back(std::move(cell));
    }
  }

  sim::CampaignOptions campaign_options;
  campaign_options.threads = config.threads;
  const auto results = sim::run_campaign(cells, campaign_options);

  sim::Json rows = sim::Json::array();
  for (std::size_t i = 0; i < results.size(); i += 4) {
    const auto& push = results[i].summary;
    const auto& pp = results[i + 1].summary;
    const auto& push_a = results[i + 2].summary;
    const auto& pp_a = results[i + 3].summary;

    const std::vector<double>& push_a_samples = push_a.values();
    std::vector<double> doubled = pp_a.values();
    for (double& t : doubled) t *= 2.0;

    const double ks = dist::ks_statistic(dist::Ecdf(push_a_samples), dist::Ecdf(doubled));
    // Two-sample KS 99% critical value ~ 1.63 * sqrt(2/trials).
    const double noise = 1.63 * std::sqrt(2.0 / static_cast<double>(config.trials));
    sim::Json row = sim::Json::object();
    row.set("graph", results[i].graph_name);
    row.set("n", results[i].n);
    row.set("hp_push", push.quantile(q));
    row.set("hp_pp", pp.quantile(q));
    row.set("push_over_pp", push.quantile(q) / pp.quantile(q));
    row.set("ks_push_a_vs_2pp_a", ks);
    row.set("ks_noise_floor", noise);
    rows.push_back(std::move(row));
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes",
           "Corollary 3: the push/pp column is Theta(1) (roughly 2-3, never growing "
           "with n). The 2x law: KS at or below the noise floor means "
           "T(push-a) ~ 2*T(pp-a) in law. hp quantiles are sketch estimates "
           "(exact up to 256 trials); KS uses full-capacity reservoirs.");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e5_regular",
    .title = "regular graphs — push vs push-pull (Cor. 3) and the 2x async law",
    .claim = "push/pp hp-ratio must be Theta(1); KS(push-a, 2*pp-a) must sit at noise level.",
    .defaults = "trials=300 seed=5002; 7 regular graphs at n<=1024, campaign-scheduled",
    .run = run,
}};

}  // namespace
