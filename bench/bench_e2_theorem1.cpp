// E2 (Fig. 1): Theorem 1 — T_{1/n}(pp-a) = O(T_{1/n}(pp) + log n).
//
// For each family we sweep n and report the ratio
//     hp(async) / (hp(sync) + ln n)
// at the (1 - 1/trials)-quantile (the trial-capped proxy for T_{1/n}, which
// itself needs >= n trials per cell). Theorem 1 says this ratio is bounded by a universal
// constant; the star — asymptotically the worst case for the additive log
// term — should show the largest but still flat values.
//
// Runs on the campaign scheduler: every (family, n, engine) cell shares one
// trial-block queue. Random families draw from a stream derived per
// (family, size) — never from a generator shared across families — so each
// family's graphs are seed-identical no matter which families run or in
// what order.
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  struct Family {
    const char* name;
    // Takes the size exponent and the family's private generator stream.
    std::function<graph::Graph(unsigned, rng::Engine&)> make;
  };
  const std::vector<Family> families{
      {"star", [](unsigned e, rng::Engine&) { return graph::star(1u << e); }},
      {"complete", [](unsigned e, rng::Engine&) { return graph::complete(1u << e); }},
      {"hypercube", [](unsigned e, rng::Engine&) { return graph::hypercube(e); }},
      {"cycle", [](unsigned e, rng::Engine&) { return graph::cycle(1u << e); }},
      {"torus", [](unsigned e, rng::Engine&) { return graph::torus(1u << (e / 2)); }},
      {"binary_tree",
       [](unsigned e, rng::Engine&) { return graph::complete_binary_tree((1u << e) - 1); }},
      {"random_regular(d=6)",
       [](unsigned e, rng::Engine& eng) { return graph::random_regular(1u << e, 6, eng); }},
      {"erdos_renyi",
       [](unsigned e, rng::Engine& eng) {
         const graph::NodeId n = 1u << e;
         return graph::erdos_renyi(n, 3.0 * std::log(n) / n, eng);
       }},
      {"pref_attachment", [](unsigned e, rng::Engine& eng) {
         return graph::preferential_attachment(1u << e, 3, eng);
       }},
  };

  const auto config = ctx.trial_config(300, 2002);
  const double q = 1.0 - 1.0 / static_cast<double>(config.trials);
  const unsigned max_exponent = 10 + (ctx.scale() > 1 ? 2 : 0);

  std::vector<sim::CampaignConfig> cells;
  std::vector<const char*> cell_family;  // row label per (sync, async) pair
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (unsigned e = 8; e <= max_exponent; e += 2) {
      // One private stream per (family, size): graph identity is a pure
      // function of the seed and this index, not of sibling configurations.
      rng::Engine gen_eng = rng::derive_stream(2001, f * 64 + e);
      const auto g = std::make_shared<const graph::Graph>(families[f].make(e, gen_eng));
      for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
        sim::CampaignConfig cell;
        cell.id = std::string(families[f].name) + "_e" + std::to_string(e) + "_" +
                  sim::engine_name(engine);
        cell.prebuilt = g;
        cell.engine = engine;
        cell.mode = core::Mode::kPushPull;
        // Source 1 (a leaf on the star — the paper's worst case); node 1
        // exists in every family at these sizes.
        cell.source = 1;
        cell.trials = config.trials;
        cell.seed = config.seed;
        cells.push_back(std::move(cell));
      }
      cell_family.push_back(families[f].name);
    }
  }

  sim::CampaignOptions campaign_options;
  campaign_options.threads = config.threads;
  // Quantiles at the hp tail must stay exact (not sketch-approximate), as
  // they were when samples were materialized.
  campaign_options.sketch_capacity =
      std::max<std::size_t>(campaign_options.sketch_capacity, config.trials);
  const auto results = sim::run_campaign(cells, campaign_options);

  sim::Json rows = sim::Json::array();
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const auto& sync = results[i].summary;
    const auto& async = results[i + 1].summary;
    const double hp_sync = sync.quantile(q);
    const double hp_async = async.quantile(q);
    const double n = static_cast<double>(results[i].n);
    sim::Json row = sim::Json::object();
    row.set("family", cell_family[i / 2]);
    row.set("n", results[i].n);
    row.set("hp_sync", hp_sync);
    row.set("hp_async", hp_async);
    row.set("ratio", hp_async / (hp_sync + std::log(n)));
    rows.push_back(std::move(row));
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes", "Theorem 1 holds if the ratio column is bounded (no growth with n).");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e2_theorem1",
    .title = "Theorem 1 ratio hp(pp-a) / (hp(pp) + ln n)",
    .claim = "Bounded-by-constant across families and n is the theorem's claim.",
    .defaults = "trials=300 seed=2002 per (family, n) point, campaign-scheduled",
    .run = run,
}};

}  // namespace
