// Dynamics subsystem tests: alias-table weighted sampling (statistical
// sanity via chi-squared), weight-model determinism/symmetry, churn overlay
// semantics (Markov state, rewiring invariants, the epoch cache), and the
// campaign-level contract — a churn+weighted campaign is bit-identical
// across thread counts and block sizes, races compose with dynamics, and
// the spec front end parses/rejects the nested `dynamics` block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "dynamics/alias.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/weights.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "support/campaign_fixtures.hpp"

using namespace rumor;

// --- NeighborAliasTable ------------------------------------------------------

TEST(DynamicsAlias, ChiSquaredAgainstExactWeights) {
  // Star hub with 8 leaves and weights 1..8: 160k alias samples must match
  // the exact distribution. Chi-squared, df = 7: the 0.999 critical value
  // is 24.3; the committed seed sits far below it (the margin documents the
  // test's determinism, not a statistical gamble).
  const auto g = graph::star(9);  // hub = 0, degree 8
  const auto offsets = dynamics::csr_offsets(g);
  std::vector<double> weights(offsets.back(), 1.0);
  double total = 0.0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    weights[offsets[0] + i] = static_cast<double>(i + 1);
    total += static_cast<double>(i + 1);
  }
  dynamics::NeighborAliasTable table;
  table.build(offsets, weights);

  auto eng = rng::derive_stream(42, 0);
  const std::uint64_t samples = 160'000;
  std::vector<std::uint64_t> counts(8, 0);
  for (std::uint64_t s = 0; s < samples; ++s) ++counts[table.sample_local(0, eng)];
  double chi2 = 0.0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const double expected = static_cast<double>(samples) * static_cast<double>(i + 1) / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.3) << "alias sampling deviates from the exact weights";
}

TEST(DynamicsAlias, UniformWeightsSampleEveryNeighbor) {
  // Equal weights = uniform sampling; every slot of a node must be hit
  // close to 1/deg of the time.
  const auto g = graph::hypercube(3);  // 3-regular
  const auto offsets = dynamics::csr_offsets(g);
  const std::vector<double> weights(offsets.back(), 2.5);
  dynamics::NeighborAliasTable table;
  table.build(offsets, weights);
  auto eng = rng::derive_stream(7, 1);
  std::vector<std::uint64_t> counts(g.degree(0), 0);
  const std::uint64_t samples = 60'000;
  for (std::uint64_t s = 0; s < samples; ++s) ++counts[table.sample_local(0, eng)];
  for (const std::uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c),
                static_cast<double>(samples) / static_cast<double>(counts.size()),
                0.05 * static_cast<double>(samples));
  }
}

TEST(DynamicsAlias, ZeroWeightEntriesAreNeverSampled) {
  const auto g = graph::star(5);
  const auto offsets = dynamics::csr_offsets(g);
  std::vector<double> weights(offsets.back(), 0.0);
  weights[offsets[0] + 2] = 1.0;  // hub: only leaf slot 2 has mass
  dynamics::NeighborAliasTable table;
  table.build(offsets, weights);
  auto eng = rng::derive_stream(9, 2);
  for (int s = 0; s < 2'000; ++s) EXPECT_EQ(table.sample_local(0, eng), 2u);
}

TEST(DynamicsAlias, AllZeroSliceFallsBackToUniform) {
  // A slice with zero total weight (spec-reachable only through custom
  // weights, but the builder must not divide by it) samples uniformly.
  const auto g = graph::star(4);
  const auto offsets = dynamics::csr_offsets(g);
  const std::vector<double> weights(offsets.back(), 0.0);
  dynamics::NeighborAliasTable table;
  table.build(offsets, weights);
  auto eng = rng::derive_stream(11, 3);
  std::vector<std::uint64_t> counts(3, 0);
  for (int s = 0; s < 9'000; ++s) ++counts[table.sample_local(0, eng)];
  for (const std::uint64_t c : counts) EXPECT_GT(c, 2'000u);
}

// --- Weight models -----------------------------------------------------------

TEST(DynamicsWeights, SymmetricDeterministicAndSeedSensitive) {
  const auto g = graph::hypercube(4);
  dynamics::WeightParams params;
  for (const auto model :
       {dynamics::WeightModel::kUniform, dynamics::WeightModel::kHeavyTailed}) {
    params.model = model;
    const double vw = dynamics::edge_weight(params, g, 77, 3, 11);
    EXPECT_EQ(vw, dynamics::edge_weight(params, g, 77, 11, 3)) << "asymmetric weight";
    EXPECT_EQ(vw, dynamics::edge_weight(params, g, 77, 3, 11)) << "non-deterministic weight";
    EXPECT_NE(vw, dynamics::edge_weight(params, g, 78, 3, 11)) << "seed-insensitive weight";
    EXPECT_GT(vw, 0.0);
  }
}

TEST(DynamicsWeights, ModelsProduceDocumentedShapes) {
  const auto g = graph::star(16);  // hub degree 15, leaves degree 1
  dynamics::WeightParams params;
  params.model = dynamics::WeightModel::kUniform;
  for (graph::NodeId leaf = 1; leaf < 16; ++leaf) {
    const double w = dynamics::edge_weight(params, g, 5, 0, leaf);
    EXPECT_GE(w, 0.5);
    EXPECT_LT(w, 1.5);
  }
  params.model = dynamics::WeightModel::kHeavyTailed;
  params.alpha = 2.0;
  for (graph::NodeId leaf = 1; leaf < 16; ++leaf) {
    EXPECT_GE(dynamics::edge_weight(params, g, 5, 0, leaf), 1.0);  // Pareto support
  }
  params.model = dynamics::WeightModel::kDegree;
  EXPECT_EQ(dynamics::edge_weight(params, g, 5, 0, 3), 15.0);  // deg(hub) * deg(leaf)
}

TEST(DynamicsWeights, AlignedArrayMatchesPairwiseFunction) {
  rng::Engine gen = rng::derive_stream(123, 0);
  const auto g = graph::random_regular(32, 4, gen);
  dynamics::WeightParams params;
  params.model = dynamics::WeightModel::kHeavyTailed;
  const auto offsets = dynamics::csr_offsets(g);
  const auto weights = dynamics::make_edge_weights(g, params, 55);
  ASSERT_EQ(weights.size(), offsets.back());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t i = 0; i < g.degree(v); ++i) {
      EXPECT_EQ(weights[offsets[v] + i],
                dynamics::edge_weight(params, g, 55, v, g.neighbor_at(v, i)));
    }
  }
}

// --- DynamicGraphView --------------------------------------------------------

namespace {

dynamics::DynamicsSpec markov_spec(double birth, double death, std::uint64_t period = 1) {
  dynamics::DynamicsSpec spec;
  spec.churn.model = dynamics::ChurnModel::kMarkov;
  spec.churn.birth = birth;
  spec.churn.death = death;
  spec.churn.period = period;
  spec.seed = 99;
  return spec;
}

std::uint64_t degree_sum(const dynamics::DynamicGraphView& view, graph::NodeId n) {
  std::uint64_t sum = 0;
  for (graph::NodeId v = 0; v < n; ++v) sum += view.degree(v);
  return sum;
}

}  // namespace

TEST(DynamicsView, MarkovExtremesFreezeOrEmptyTheGraph) {
  const auto g = graph::hypercube(4);
  // death = 0: the base graph forever.
  dynamics::DynamicGraphView frozen(g, markov_spec(1.0, 0.0), nullptr, 1, 0);
  for (std::uint64_t r = 1; r <= 6; ++r) {
    frozen.begin_round(r);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(frozen.degree(v), g.degree(v));
  }
  // death = 1, birth = 0: everything is gone from round 2 on.
  dynamics::DynamicGraphView emptied(g, markov_spec(0.0, 1.0), nullptr, 1, 0);
  emptied.begin_round(1);
  EXPECT_EQ(degree_sum(emptied, g.num_nodes()), 2 * g.num_edges());  // epoch 0 = base
  emptied.begin_round(2);
  EXPECT_EQ(degree_sum(emptied, g.num_nodes()), 0u);
}

TEST(DynamicsView, MarkovStreamsAreTrialAndSeedDeterministic) {
  const auto g = graph::hypercube(5);
  const auto spec = markov_spec(0.3, 0.3);
  auto degrees_at_round_5 = [&](std::uint64_t stream_seed, std::uint64_t trial) {
    dynamics::DynamicGraphView view(g, spec, nullptr, stream_seed, trial);
    for (std::uint64_t r = 1; r <= 5; ++r) view.begin_round(r);
    std::vector<std::uint32_t> degrees;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) degrees.push_back(view.degree(v));
    return degrees;
  };
  EXPECT_EQ(degrees_at_round_5(4, 2), degrees_at_round_5(4, 2));  // reproducible
  EXPECT_NE(degrees_at_round_5(4, 2), degrees_at_round_5(4, 3));  // per-trial streams
  EXPECT_NE(degrees_at_round_5(4, 2), degrees_at_round_5(5, 2));  // per-stream-seed
}

TEST(DynamicsView, RewirePreservesStubCountAndSymmetry) {
  rng::Engine gen = rng::derive_stream(31, 0);
  const auto g = graph::random_regular(64, 4, gen);
  dynamics::DynamicsSpec spec;
  spec.churn.model = dynamics::ChurnModel::kRewire;
  spec.churn.rewire = 0.5;
  spec.seed = 7;
  dynamics::DynamicGraphView view(g, spec, nullptr, 2, 0);
  bool rewired_something = false;
  for (std::uint64_t r = 1; r <= 8; ++r) {
    view.begin_round(r);
    // Rewiring moves endpoints but never creates or destroys an edge, so
    // the directed-entry count is invariant...
    EXPECT_EQ(degree_sum(view, g.num_nodes()), 2 * g.num_edges());
    // ...and the overlay stays symmetric: w in N(v) <=> v in N(w).
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const graph::NodeId w : view.neighbors(v)) {
        const auto back = view.neighbors(w);
        EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
        if (r > 1 && view.degree(v) != g.degree(v)) rewired_something = true;
      }
    }
    if (r > 1) {
      for (graph::NodeId v = 0; v < g.num_nodes() && !rewired_something; ++v) {
        if (view.degree(v) != g.degree(v)) rewired_something = true;
      }
    }
  }
  EXPECT_TRUE(rewired_something) << "p = 0.5 rewiring changed nothing in 7 epochs";
}

TEST(DynamicsView, EpochCacheHoldsAdjacencyInsidePeriod) {
  const auto g = graph::hypercube(4);
  dynamics::DynamicGraphView view(g, markov_spec(0.0, 1.0, /*period=*/3), nullptr, 1, 0);
  // Rounds 1..3 share epoch 0 (the base graph); round 4 enters epoch 1,
  // where death = 1 has removed everything.
  for (std::uint64_t r = 1; r <= 3; ++r) {
    view.begin_round(r);
    EXPECT_EQ(view.epoch(), 0u);
    EXPECT_EQ(degree_sum(view, g.num_nodes()), 2 * g.num_edges());
  }
  view.begin_round(4);
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_EQ(degree_sum(view, g.num_nodes()), 0u);
}

TEST(DynamicsView, AsyncAdvanceTracksTimeEpochs) {
  const auto g = graph::hypercube(4);
  dynamics::DynamicGraphView view(g, markov_spec(0.2, 0.2, /*period=*/2), nullptr, 1, 0);
  view.advance_time(1.9);
  EXPECT_EQ(view.epoch(), 0u);
  view.advance_time(7.5);  // jumps over epochs 1..2 straight to 3
  EXPECT_EQ(view.epoch(), 3u);
}

TEST(DynamicsView, AsyncRequiresGlobalClockView) {
  const auto g = graph::hypercube(4);
  dynamics::DynamicsSpec spec = markov_spec(0.2, 0.2);
  dynamics::DynamicGraphView view(g, spec, nullptr, 1, 0);
  core::AsyncOptions options;
  options.view = core::AsyncView::kPerEdgeClocks;
  options.dynamics = &view;
  auto eng = rng::derive_stream(1, 0);
  EXPECT_THROW((void)core::run_async(g, 0, eng, options), std::runtime_error);
}

// --- Campaign integration: the determinism contract --------------------------

namespace {

/// A mixed dynamics campaign: churn-only, weights-only, churn+weights, and
/// an async cell, over two topologies.
std::vector<sim::CampaignConfig> dynamics_configs(std::uint64_t trials) {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kRegular = [] {
    rng::Engine gen = rng::derive_stream(61, 0);
    return shared(graph::random_regular(96, 4, gen));
  }();
  std::vector<sim::CampaignConfig> configs;
  std::uint64_t seed = 700;
  for (const auto& g : {kHypercube, kRegular}) {
    sim::CampaignConfig churned;
    churned.id = g->name() + "_markov";
    churned.prebuilt = g;
    churned.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
    churned.dynamics.churn.birth = 0.15;
    churned.dynamics.churn.death = 0.15;

    sim::CampaignConfig weighted;
    weighted.id = g->name() + "_weighted";
    weighted.prebuilt = g;
    weighted.dynamics.weights.model = dynamics::WeightModel::kHeavyTailed;
    weighted.dynamics.weights.alpha = 1.5;

    sim::CampaignConfig both;
    both.id = g->name() + "_rewire_weighted";
    both.prebuilt = g;
    both.dynamics.churn.model = dynamics::ChurnModel::kRewire;
    both.dynamics.churn.rewire = 0.2;
    both.dynamics.weights.model = dynamics::WeightModel::kUniform;

    sim::CampaignConfig async_churned;
    async_churned.id = g->name() + "_async_markov";
    async_churned.prebuilt = g;
    async_churned.engine = sim::EngineKind::kAsync;
    async_churned.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
    async_churned.dynamics.churn.birth = 0.3;
    async_churned.dynamics.churn.death = 0.3;

    for (auto* cfg : {&churned, &weighted, &both, &async_churned}) {
      cfg->trials = trials;
      cfg->seed = ++seed;
      configs.push_back(std::move(*cfg));
    }
  }
  return configs;
}

}  // namespace

TEST(DynamicsCampaign, BitDeterministicAcrossThreadCounts) {
  const auto configs = dynamics_configs(32);
  sim::CampaignOptions options;
  options.block_size = 8;

  options.threads = 1;
  const auto serial = sim::run_campaign(configs, options);
  options.threads = 2;
  const auto two = sim::run_campaign(configs, options);
  options.threads = 8;
  const auto eight = sim::run_campaign(configs, options);

  ASSERT_EQ(serial.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(two[i])) << serial[i].id;
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(eight[i])) << serial[i].id;
  }
}

TEST(DynamicsCampaign, PerTrialResultsBitIdenticalAcrossBlockSizes) {
  // The summaries' values are the per-trial results in trial order; under
  // dynamics they must still be independent of block size and threading —
  // the churn stream of trial t is a pure function of (config, trial).
  const std::uint64_t trials = 24;
  const auto configs = dynamics_configs(trials);
  std::vector<std::vector<std::vector<double>>> runs;
  for (const std::uint64_t block_size : {3u, 8u, 32u}) {
    sim::CampaignOptions options;
    options.block_size = block_size;
    options.threads = 8;
    const auto results = sim::run_campaign(configs, options);
    std::vector<std::vector<double>> values;
    for (const auto& r : results) values.push_back(r.summary.values());
    runs.push_back(std::move(values));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(DynamicsCampaign, RaceComposesWithDynamics) {
  // The worst-source race must schedule unchanged on a dynamic graph: the
  // raced source and its refined summary stay bit-identical across thread
  // counts, and the race outcome is ordered (worst >= best).
  static const auto kLollipop = shared(graph::lollipop(16, 16));
  sim::CampaignConfig race;
  race.id = "race_markov";
  race.prebuilt = kLollipop;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 4;
  race.race.finalists = 3;
  race.race.final_trials = 24;
  race.race.max_candidates = 12;
  race.trials = 24;
  race.seed = 5;
  race.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  race.dynamics.churn.birth = 0.2;
  race.dynamics.churn.death = 0.2;
  race.dynamics.weights.model = dynamics::WeightModel::kUniform;

  std::vector<sim::CampaignResult> runs[3];
  const unsigned thread_counts[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    sim::CampaignOptions options;
    options.threads = thread_counts[i];
    options.block_size = 8;
    runs[i] = sim::run_campaign({race}, options);
  }
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(runs[0][0].source, runs[i][0].source);
    EXPECT_EQ(runs[0][0].best_source, runs[i][0].best_source);
    EXPECT_EQ(runs[0][0].best_mean, runs[i][0].best_mean);
    EXPECT_EQ(fingerprint(runs[0][0]), fingerprint(runs[i][0]));
  }
  EXPECT_GE(runs[0][0].summary.mean(), runs[0][0].best_mean);
  EXPECT_LT(runs[0][0].source, kLollipop->num_nodes());
}

TEST(DynamicsCampaign, StaticSpecLeavesResultsUntouched) {
  // An explicitly-static dynamics block must change nothing: same trials,
  // same streams, bit-identical statistics versus a config without one.
  sim::CampaignConfig plain;
  plain.prebuilt = shared(graph::hypercube(5));
  plain.trials = 24;
  plain.seed = 42;
  sim::CampaignConfig annotated = plain;
  annotated.dynamics = dynamics::DynamicsSpec{};  // churn none, weights none
  annotated.dynamics.seed = 777;                  // ignored while static

  const auto a = sim::run_campaign({plain}, {});
  const auto b = sim::run_campaign({annotated}, {});
  EXPECT_EQ(fingerprint(a[0]), fingerprint(b[0]));
}

TEST(DynamicsCampaign, RejectsUnsupportedEngines) {
  sim::CampaignConfig aux;
  aux.prebuilt = shared(graph::hypercube(4));
  aux.engine = sim::EngineKind::kAux;
  aux.trials = 4;
  aux.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  EXPECT_THROW((void)sim::run_campaign({aux}, {}), std::runtime_error);

  sim::CampaignConfig per_edge;
  per_edge.prebuilt = shared(graph::hypercube(4));
  per_edge.engine = sim::EngineKind::kAsync;
  per_edge.view = core::AsyncView::kPerEdgeClocks;
  per_edge.trials = 4;
  per_edge.dynamics.weights.model = dynamics::WeightModel::kUniform;
  EXPECT_THROW((void)sim::run_campaign({per_edge}, {}), std::runtime_error);

  sim::CampaignConfig bad_params;
  bad_params.prebuilt = shared(graph::hypercube(4));
  bad_params.trials = 4;
  bad_params.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  bad_params.dynamics.churn.birth = 1.5;
  EXPECT_THROW((void)sim::run_campaign({bad_params}, {}), std::runtime_error);
}

// --- Spec front end ----------------------------------------------------------

TEST(DynamicsSpecParsing, ParsesFullBlockAndDerivesIds) {
  const auto spec = parse(R"({
    "configs": [
      {"graph": "hypercube", "n": 64,
       "dynamics": {"churn": "markov", "birth": 0.1, "death": 0.2, "period": 3,
                    "weights": "heavy_tailed", "weight_alpha": 1.25,
                    "dynamics_seed": 99}},
      {"graph": "star", "n": 32, "engine": "async",
       "dynamics": {"churn": "rewire", "rewire_p": 0.4}}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 2u);
  const auto& c0 = spec.configs[0];
  EXPECT_EQ(c0.dynamics.churn.model, dynamics::ChurnModel::kMarkov);
  EXPECT_EQ(c0.dynamics.churn.birth, 0.1);
  EXPECT_EQ(c0.dynamics.churn.death, 0.2);
  EXPECT_EQ(c0.dynamics.churn.period, 3u);
  EXPECT_EQ(c0.dynamics.weights.model, dynamics::WeightModel::kHeavyTailed);
  EXPECT_EQ(c0.dynamics.weights.alpha, 1.25);
  EXPECT_EQ(c0.dynamics.seed, 99u);
  EXPECT_EQ(c0.id, "hypercube_n64_sync_push-pull_markov_w-heavy_tailed");
  const auto& c1 = spec.configs[1];
  EXPECT_EQ(c1.dynamics.churn.model, dynamics::ChurnModel::kRewire);
  EXPECT_EQ(c1.dynamics.churn.rewire, 0.4);
  EXPECT_EQ(c1.dynamics.weights.model, dynamics::WeightModel::kNone);
  EXPECT_EQ(c1.id, "star_n32_async_push-pull_rewire");
}

TEST(DynamicsSpecParsing, DefaultsMergeKeyByKey) {
  const auto spec = parse(R"({
    "defaults": {"dynamics": {"churn": "markov", "birth": 0.05, "death": 0.05}},
    "configs": [
      {"id": "inherit", "graph": "star", "n": 64},
      {"id": "override", "graph": "star", "n": 64, "dynamics": {"death": 0.5}},
      {"graph": "star", "n": 64, "dynamics": {"churn": "none"}}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 3u);
  EXPECT_EQ(spec.configs[0].dynamics.churn.death, 0.05);
  EXPECT_EQ(spec.configs[1].dynamics.churn.death, 0.5);   // override one key
  EXPECT_EQ(spec.configs[1].dynamics.churn.birth, 0.05);  // keep the rest
  EXPECT_TRUE(spec.configs[2].dynamics.is_static());
}

TEST(DynamicsSpecParsing, BlockPrefixOnlyLabelsErrorsFromInsideTheBlock) {
  // A top-level error raised before the nested block is parsed must keep
  // its own attribution — not get rewritten to "dynamics: ..." just
  // because a (valid) dynamics block is also present.
  const auto spec = parse(R"({"configs": [{"graph": "star", "n": 64, "message_loss": 1.5,
      "dynamics": {"churn": "markov"}}]})");
  ASSERT_FALSE(spec.error.empty());
  EXPECT_EQ(spec.error.find("dynamics:"), std::string::npos) << spec.error;
  EXPECT_NE(spec.error.find("message_loss"), std::string::npos) << spec.error;
}

TEST(DynamicsSpecParsing, RejectsUnknownKeysNamingThem) {
  const auto bad_key = parse(R"({"configs": [{"graph": "star", "n": 64,
      "dynamics": {"churn": "markov", "birht": 0.1}}]})");
  EXPECT_NE(bad_key.error.find("dynamics: unknown key 'birht'"), std::string::npos)
      << bad_key.error;
  const auto bad_race_key = parse(R"({"configs": [{"graph": "star", "n": 64,
      "source": "race", "race": {"screen_trails": 4}}]})");
  EXPECT_NE(bad_race_key.error.find("race: unknown key 'screen_trails'"), std::string::npos)
      << bad_race_key.error;
}

TEST(DynamicsSpecParsing, RejectsBadValuesAndCombos) {
  for (const char* bad : {
           // out-of-range probabilities / parameters
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"churn": "markov", "birth": 1.5}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"churn": "rewire", "rewire_p": -0.1}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"churn": "markov", "period": 0}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"weights": "heavy_tailed", "weight_alpha": 0}}]})",
           // unknown model names, wrong types
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"churn": "banana"}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": {"weights": "banana"}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "dynamics": 7}]})",
           R"({"configs": [{"graph": "star", "n": 64, "source": "race", "race": 7}]})",
           // engine/view combinations dynamics cannot run on
           R"({"configs": [{"graph": "star", "n": 64, "engine": "aux", "dynamics": {"churn": "markov"}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "engine": "aux", "dynamics": {"weights": "uniform"}}]})",
           R"({"configs": [{"graph": "star", "n": 64, "engine": "async", "view": "per-edge", "dynamics": {"churn": "rewire"}}]})",
       }) {
    EXPECT_FALSE(parse(bad).error.empty()) << bad;
  }
  // The guard is per expanded config: an engine array mixing a dynamics-
  // capable engine with aux still fails loudly.
  EXPECT_FALSE(parse(R"({"configs": [{"graph": "star", "n": 64,
      "engine": ["sync", "aux"], "dynamics": {"churn": "markov"}}]})").error.empty());
}

TEST(DynamicsSpecParsing, NestedRaceBlockMatchesFlatKeys) {
  const auto nested = parse(R"({"configs": [{"graph": "star", "n": 64, "source": "race",
      "race": {"screen_trials": 6, "finalists": 3, "final_trials": 20, "max_candidates": 10}}]})");
  ASSERT_TRUE(nested.error.empty()) << nested.error;
  const auto flat = parse(R"({"configs": [{"graph": "star", "n": 64, "source": "race",
      "screen_trials": 6, "finalists": 3, "final_trials": 20, "max_candidates": 10}]})");
  ASSERT_TRUE(flat.error.empty()) << flat.error;
  EXPECT_EQ(nested.configs[0].race.screen_trials, flat.configs[0].race.screen_trials);
  EXPECT_EQ(nested.configs[0].race.finalists, flat.configs[0].race.finalists);
  EXPECT_EQ(nested.configs[0].race.final_trials, flat.configs[0].race.final_trials);
  EXPECT_EQ(nested.configs[0].race.max_candidates, flat.configs[0].race.max_candidates);
}

// --- Reports -----------------------------------------------------------------

TEST(DynamicsReport, ParamsCarryTheDynamicsBlockOnlyWhenActive) {
  sim::CampaignConfig cfg;
  cfg.prebuilt = shared(graph::hypercube(5));
  cfg.trials = 8;
  cfg.seed = 3;
  cfg.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  cfg.dynamics.churn.birth = 0.1;
  cfg.dynamics.churn.death = 0.2;
  cfg.dynamics.weights.model = dynamics::WeightModel::kHeavyTailed;
  const auto dynamic_report =
      sim::campaign_report(sim::run_campaign({cfg}, {})[0], "unit");
  const sim::Json* dyn = dynamic_report.find("params")->find("dynamics");
  ASSERT_NE(dyn, nullptr);
  EXPECT_EQ(dyn->find("churn")->as_string(), "markov");
  EXPECT_EQ(dyn->find("birth")->as_number(), 0.1);
  EXPECT_EQ(dyn->find("death")->as_number(), 0.2);
  EXPECT_EQ(dyn->find("weights")->as_string(), "heavy_tailed");
  EXPECT_NE(dyn->find("weight_alpha"), nullptr);
  EXPECT_EQ(dyn->find("dynamics_seed")->as_number(), 3.0);  // derived from the config seed
  EXPECT_TRUE(sim::Json::parse(dynamic_report.dump(2)).has_value());

  // Static reports keep their exact historical key set: no dynamics block.
  sim::CampaignConfig plain;
  plain.prebuilt = shared(graph::hypercube(5));
  plain.trials = 8;
  plain.seed = 3;
  const auto static_report =
      sim::campaign_report(sim::run_campaign({plain}, {})[0], "unit");
  EXPECT_EQ(static_report.find("params")->find("dynamics"), nullptr);
}
