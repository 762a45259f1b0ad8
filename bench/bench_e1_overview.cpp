// E1 (Table 1): overview of synchronous vs asynchronous push-pull spreading
// times across the graph families the paper discusses.
//
// Paper-expected shape: on expanders and classical topologies (complete,
// hypercube, random regular, ER) the two times agree within constant
// factors [2, 14, 21, 23]; on the star, sync is constant while async is
// Theta(log n); on power-law/PA graphs async tends to be faster.
//
// Runs on the campaign scheduler: all (graph, engine) cells share one
// trial-block queue, so a --threads pool stays busy across the whole table
// instead of draining one configuration at a time, and each cell reduces to
// a streaming summary instead of a sample vector.
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
  rng::Engine gen_eng = rng::derive_stream(1001, 0);

  std::vector<std::shared_ptr<const graph::Graph>> graphs;
  auto keep = [&graphs](graph::Graph g) {
    graphs.push_back(std::make_shared<const graph::Graph>(std::move(g)));
  };
  keep(graph::complete(256));
  keep(graph::star(1024));
  keep(graph::path(256));
  keep(graph::cycle(512));
  keep(graph::hypercube(10));
  keep(graph::torus(32));
  keep(graph::complete_binary_tree(1023));
  keep(graph::erdos_renyi(1024, 3.0 * std::log(1024.0) / 1024.0, gen_eng));
  keep(graph::random_regular(1024, 6, gen_eng));
  keep(graph::largest_component(
      graph::chung_lu(1024, {.beta = 2.5, .average_degree = 8.0}, gen_eng)));
  keep(graph::preferential_attachment(1024, 3, gen_eng));

  const auto config = ctx.trial_config(100, 42);
  std::vector<sim::CampaignConfig> cells;
  cells.reserve(graphs.size() * 2);
  for (const auto& g : graphs) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cell;
      cell.id = g->name() + std::string("_") + sim::engine_name(engine);
      cell.prebuilt = g;
      cell.engine = engine;
      cell.mode = core::Mode::kPushPull;
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
    const auto& sync = results[i].summary;
    const auto& async = results[i + 1].summary;
    sim::Json row = sim::Json::object();
    row.set("graph", results[i].graph_name);
    row.set("n", results[i].n);
    row.set("sync_mean", sync.mean());
    row.set("sync_p95", sync.quantile(0.95));
    // T_q (the paper's high-probability time), an exact order statistic of
    // the trial values, at the campaign-resolved tail mass q = hp_q
    // (default 1/trials). CI gates
    // these per-family quantiles alongside the means (bench/README.md).
    row.set("sync_hp_time", sync.hp_time(results[i].hp_q));
    row.set("async_mean", async.mean());
    row.set("async_p95", async.quantile(0.95));
    row.set("async_hp_time", async.hp_time(results[i + 1].hp_q));
    row.set("async_over_sync", async.mean() / sync.mean());
    rows.push_back(std::move(row));
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes",
           "Classical topologies agree within constant factors; the star separates "
           "(sync constant, async ~ log n); power-law families favor async. "
           "Measured on the campaign scheduler (streaming summaries; p95 and the "
           "hp-time T_q exact for trial counts within the sketch capacity of 256).");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e1_overview",
    .title = "sync vs async push-pull overview (Table 1)",
    .claim = "async/sync mean ratio is O(1) on classical families; star separates.",
    .defaults = "trials=100 seed=42; 11 graph families at n<=1024, campaign-scheduled",
    .run = run,
}};

}  // namespace
