// E12 (design ablation, docs/ENGINES.md): exact event-driven pp-a vs the
// time-sliced approximation.
//
// Quantifies why the library simulates pp-a exactly: the discretized engine
// converges to the exact law as dt -> 0 (KS distance), but at coarse dt it
// is biased *slow* — evaluating contacts against the slice-start state
// drops all intra-slice relay chains, the very effect that distinguishes
// pp-a from round-based protocols (+120% on the hypercube at dt = 2). The
// exact engine needs one event per step and has no tuning knob.
#include <cmath>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "dist/distributions.hpp"
#include "sim/experiment.hpp"
#include "sim/harness.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::complete(128));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::star(128));

  sim::Json rows = sim::Json::array();
  for (const auto& g : graphs) {
    const auto config = ctx.trial_config(300, 12002);
    const auto exact = sim::measure_async(g, 1, core::Mode::kPushPull, config);
    const dist::Ecdf exact_ecdf(exact.samples());
    for (double dt : {2.0, 0.5, 0.1, 0.02}) {
      auto disc_samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
        core::DiscretizedOptions opts;
        opts.dt = dt;
        return core::run_async_discretized(g, 1, eng, opts).time;
      });
      const sim::SpreadingTimeSample disc(std::move(disc_samples));
      const double ks = dist::ks_statistic(dist::Ecdf(disc.samples()), exact_ecdf);
      const double floor = 1.63 * std::sqrt(2.0 / static_cast<double>(config.trials));
      sim::Json row = sim::Json::object();
      row.set("graph", g.name());
      row.set("dt", dt);
      row.set("exact_mean", exact.mean());
      row.set("disc_mean", disc.mean());
      row.set("bias_percent", 100.0 * (disc.mean() / exact.mean() - 1.0));
      row.set("ks", ks);
      row.set("ks_99_floor", floor);
      rows.push_back(std::move(row));
    }
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes",
           "At dt <= 0.02 the approximation is statistically indistinguishable from "
           "exact (KS below the floor) but needs ~50 slices per time unit; the "
           "event-driven engine gets the exact law at one event per step with no "
           "tuning (see e9_micro for throughput).");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e12_discretization",
    .title = "exact event-driven async vs dt-sliced approximation",
    .claim = "KS to exact must shrink with dt; coarse slices bias slow (lost relay chains).",
    .defaults = "trials=300 seed=12002 per time-slice dt",
    .run = run,
}};

}  // namespace
