// E6 (Fig. 5): the Section 5 block coupling's accounting (Lemma 14).
//
// For each graph we run the coupled pp-a/pp execution and report the block
// decomposition: full / left-incompatible / right-incompatible closures,
// special blocks and their rounds, and the headline comparison
//     rho_tau   vs   tau/sqrt(n) + sqrt(n)
// whose O(1) quotient is exactly Lemma 14. The Lemma 13 subset invariant is
// asserted on every run.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rumor.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

sim::Json run(const sim::ExperimentContext& ctx) {
  const std::uint64_t runs = ctx.trials(20);
  const std::uint64_t seed = ctx.seed(6002);
  rng::Engine gen_eng = rng::derive_stream(6001, 0);

  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::complete(256));
  graphs.push_back(graph::star(1024));
  graphs.push_back(graph::hypercube(10));
  graphs.push_back(graph::cycle(512));
  graphs.push_back(graph::random_regular(1024, 6, gen_eng));
  graphs.push_back(graph::preferential_attachment(1024, 3, gen_eng));
  graphs.push_back(graph::chain_of_stars(16, 16));

  sim::Json rows = sim::Json::array();
  for (const auto& g : graphs) {
    double tau = 0.0, rho = 0.0, full = 0.0, left = 0.0, right = 0.0, spec = 0.0;
    bool invariant = true;
    for (std::uint64_t i = 0; i < runs; ++i) {
      auto eng = rng::derive_stream(seed, i);
      const auto st = core::run_block_coupling(g, 0, eng);
      if (!st.completed) {
        throw std::runtime_error("e6_blocks: coupled run " + std::to_string(i) + " on graph '" +
                                 g.name() + "' hit its step cap");
      }
      tau += static_cast<double>(st.steps);
      rho += static_cast<double>(st.rounds);
      full += static_cast<double>(st.full_blocks);
      left += static_cast<double>(st.left_blocks);
      right += static_cast<double>(st.right_blocks);
      spec += static_cast<double>(st.special_rounds);
      invariant = invariant && st.subset_invariant_held;
    }
    const double denom = static_cast<double>(runs);
    tau /= denom;
    rho /= denom;
    full /= denom;
    left /= denom;
    right /= denom;
    spec /= denom;
    const double sqrt_n = std::sqrt(static_cast<double>(g.num_nodes()));
    const double budget = tau / sqrt_n + sqrt_n;
    sim::Json row = sim::Json::object();
    row.set("graph", g.name());
    row.set("n", g.num_nodes());
    row.set("tau", tau);
    row.set("rho", rho);
    row.set("full_blocks", full);
    row.set("left_blocks", left);
    row.set("right_blocks", right);
    row.set("special_rounds", spec);
    row.set("budget", budget);
    row.set("rho_over_budget", rho / budget);
    row.set("subset_invariant", invariant);
    rows.push_back(std::move(row));
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes", "Lemma 14: rho/budget bounded by a small constant across all rows.");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e6_blocks",
    .title = "block coupling accounting (Lemmas 13/14)",
    .claim = "rho/budget must be O(1); spec_rounds ~ O(sqrt(n)); subset invariant always.",
    .defaults = "runs=20 seed=6002 coupled executions per n",
    .run = run,
}};

}  // namespace
