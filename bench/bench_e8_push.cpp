// E8 (Table 2): the push-only relations used by Corollary 3.
//
// (1) Sauerwald: for any graph, sync push = O(async push) w.h.p. — the
//     hp-ratio sync/async stays bounded by a constant.
// (2) The star under push-only: both models need Theta(n log n) (coupon
//     collector), in contrast to push-pull where sync is constant — the
//     paper's example that pull is what asynchrony can't replicate.
//
// Runs on the campaign scheduler; random graphs draw from per-graph derived
// streams, so each topology is seed-identical regardless of list order.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  std::vector<std::shared_ptr<const graph::Graph>> graphs;
  std::size_t graph_index = 0;
  // Each random graph gets its own stream derived from (8001, list index):
  // seed-identical regardless of which graphs precede it.
  auto keep = [&](auto make) {
    rng::Engine gen_eng = rng::derive_stream(8001, graph_index++);
    graphs.push_back(std::make_shared<const graph::Graph>(make(gen_eng)));
  };
  keep([](rng::Engine&) { return graph::complete(256); });
  keep([](rng::Engine&) { return graph::hypercube(8); });
  keep([](rng::Engine&) { return graph::cycle(256); });
  keep([](rng::Engine&) { return graph::torus(16); });
  keep([](rng::Engine& eng) { return graph::random_regular(512, 4, eng); });
  keep([](rng::Engine&) { return graph::star(256); });
  keep([](rng::Engine& eng) { return graph::preferential_attachment(512, 3, eng); });

  const auto config = ctx.trial_config(200, 8002);
  const double q = 1.0 - 1.0 / static_cast<double>(config.trials);

  std::vector<sim::CampaignConfig> cells;
  cells.reserve(graphs.size() * 2);
  for (const auto& g : graphs) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cell;
      cell.id = g->name() + std::string("_") + sim::engine_name(engine) + "_push";
      cell.prebuilt = g;
      cell.engine = engine;
      cell.mode = core::Mode::kPush;
      cell.trials = config.trials;
      cell.seed = config.seed;
      cells.push_back(std::move(cell));
    }
  }

  sim::CampaignOptions campaign_options;
  campaign_options.threads = config.threads;
  const auto results = sim::run_campaign(cells, campaign_options);

  sim::Json rows = sim::Json::array();
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const double hp_sync = results[i].summary.quantile(q);
    const double hp_async = results[i + 1].summary.quantile(q);
    const double n = static_cast<double>(results[i].n);
    sim::Json row = sim::Json::object();
    row.set("graph", results[i].graph_name);
    row.set("n", results[i].n);
    row.set("hp_sync_push", hp_sync);
    row.set("hp_async_push", hp_async);
    row.set("sync_over_async", hp_sync / hp_async);
    row.set("n_ln_n", n * std::log(n));
    rows.push_back(std::move(row));
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes",
           "Sauerwald's bound: the sync/async column is Theta(1). On the star both "
           "push-only times sit at the coupon-collector scale n*ln(n) — compare "
           "e3_star, where push-pull makes the sync star constant.");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e8_push",
    .title = "push-only — sync push vs async push (Sauerwald's relation)",
    .claim = "hp(sync)/hp(async) must be Theta(1) on every family.",
    .defaults = "trials=200 seed=8002 per (family, n) point, campaign-scheduled",
    .run = run,
}};

}  // namespace
