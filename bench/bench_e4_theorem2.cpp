// E4 (Fig. 3): Theorem 2 — E[T(pp-a)] = Omega(E[T(pp)] / sqrt(n)), i.e. the
// sync/async mean ratio is O(sqrt(n)).
//
// We drive the ratio up with the bundle-chain gap family (the Acan et al.
// mechanism, graph::bundle_chain): sync push-pull pays ~2 rounds per relay hop
// (and is distance-bound to >= 2*len rounds), while pp-a crosses each hop
// in Theta(1/sqrt(width)) time via the combined push rate of the informed
// helpers. With width ~ len^2 the ratio grows polynomially in n — but
// Theorem 2 says it can never exceed c * sqrt(n). We report the ratio,
// sqrt(n), their quotient, and the fitted growth exponent (the paper's
// known example reaches 1/3); chain-of-stars rows are the null control
// (per-edge rates coincide, ratio ~ 1).
//
// Runs on the campaign scheduler: the sync and async cells of every graph
// share one trial-block queue and reduce to streaming summaries.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "stats/regression.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  struct Cell {
    std::shared_ptr<const graph::Graph> graph;
    std::uint64_t seed;
    bool track;  // rows entering the power-law fit
  };
  std::vector<Cell> specs;
  auto add = [&](graph::Graph g, std::uint64_t default_seed, bool track) {
    specs.push_back(Cell{std::make_shared<const graph::Graph>(std::move(g)),
                         ctx.seed(default_seed), track});
  };

  // Bundle chains with width = len^2 / 4 (so n ~ len^3 / 4): the Acan
  // et al. regime where the ratio grows like ~ n^{1/3} / polylog.
  const unsigned max_len = ctx.scale() > 1 ? 48 : 40;
  for (unsigned len = 16; len <= max_len; len += 8) {
    add(graph::bundle_chain(len, len * len / 4), 4004, /*track=*/true);
  }
  // Null control: chain-of-stars has identical per-edge contact rates in
  // both models, so its ratio must sit near 1 at every size.
  for (unsigned k : {8u, 16u, 32u}) {
    add(graph::chain_of_stars(k, k), 4005, /*track=*/false);
  }
  // Double star: the classic async-slow graph — the ratio can even dip
  // below 1, showing the bound is one-sided.
  for (unsigned e : {8u, 10u, 12u}) {
    add(graph::double_star(1u << e), 4006, /*track=*/false);
  }

  const std::uint64_t trials = ctx.trials(100);
  std::vector<sim::CampaignConfig> cells;
  cells.reserve(specs.size() * 2);
  for (const Cell& spec : specs) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cell;
      cell.id = spec.graph->name() + std::string("_") + sim::engine_name(engine);
      cell.prebuilt = spec.graph;
      cell.engine = engine;
      cell.mode = core::Mode::kPushPull;
      cell.trials = trials;
      cell.seed = spec.seed;
      cells.push_back(std::move(cell));
    }
  }

  sim::CampaignOptions campaign_options;
  campaign_options.threads = ctx.options().threads;
  const auto results = sim::run_campaign(cells, campaign_options);

  sim::Json rows = sim::Json::array();
  std::vector<double> ns;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const double sync_mean = results[i].summary.mean();
    const double async_mean = results[i + 1].summary.mean();
    const double ratio = sync_mean / async_mean;
    const double sqrt_n = std::sqrt(static_cast<double>(results[i].n));
    if (specs[i / 2].track) {
      ns.push_back(static_cast<double>(results[i].n));
      ratios.push_back(ratio);
    }
    sim::Json row = sim::Json::object();
    row.set("graph", results[i].graph_name);
    row.set("n", results[i].n);
    row.set("sync_mean", sync_mean);
    row.set("async_mean", async_mean);
    row.set("ratio", ratio);
    row.set("sqrt_n", sqrt_n);
    row.set("ratio_over_sqrt_n", ratio / sqrt_n);
    rows.push_back(std::move(row));
  }

  const auto fit = stats::fit_power_law(ns, ratios);
  sim::Json stats_obj = sim::Json::object();
  stats_obj.set("power_fit_exponent", fit.slope);
  stats_obj.set("power_fit_r_squared", fit.r_squared);

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("stats", std::move(stats_obj));
  body.set("notes",
           "Theorem 2: the fitted exponent must be <= 1/2; Acan et al.'s example "
           "reaches 1/3. Chain-of-stars and double-star rows are controls.");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e4_theorem2",
    .title = "Theorem 2 — E[T(pp)] / E[T(pp-a)] vs sqrt(n)",
    .claim = "ratio/sqrt(n) must stay bounded; the fitted exponent must be < 1/2.",
    .defaults = "trials=100, seeds 4004/4005/4006 per family row, campaign-scheduled",
    .run = run,
}};

}  // namespace
