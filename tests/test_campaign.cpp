// Campaign-scheduler tests: the batched multi-configuration work queue of
// sim/campaign.hpp, its determinism contract, its parity with the
// per-configuration harness, the JSON spec front end, and the bounded-memory
// behavior that lets thousand-configuration sweeps run without holding
// sample vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/harness.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/race_oracle.hpp"
#include "support/run_trials.hpp"

using namespace rumor;

namespace {

/// A small mixed campaign: three topologies, sync and async engines.
std::vector<sim::CampaignConfig> mixed_configs(std::uint64_t trials,
                                               std::size_t reservoir_capacity = 0) {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kStar = shared(graph::star(128));
  static const auto kCycle = shared(graph::cycle(96));
  std::vector<sim::CampaignConfig> configs;
  std::uint64_t seed = 500;
  for (const auto& g : {kHypercube, kStar, kCycle}) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cfg;
      cfg.id = g->name() + std::string("_") + sim::engine_name(engine);
      cfg.prebuilt = g;
      cfg.engine = engine;
      cfg.trials = trials;
      cfg.seed = ++seed;
      cfg.reservoir_capacity = reservoir_capacity;
      configs.push_back(std::move(cfg));
    }
    ++seed;
  }
  return configs;
}

}  // namespace

// --- Parity with the per-configuration harness -------------------------------

TEST(Campaign, MatchesHarnessStatistics) {
  const auto g = shared(graph::hypercube(6));
  sim::CampaignConfig cfg;
  cfg.id = "hc6_sync";
  cfg.prebuilt = g;
  cfg.trials = 64;
  cfg.seed = 99;
  cfg.reservoir_capacity = 64;  // retain all samples for the exact check

  const auto results = sim::run_campaign({cfg}, {});
  ASSERT_EQ(results.size(), 1u);
  const auto& summary = results[0].summary;

  sim::TrialConfig trial_config;
  trial_config.trials = 64;
  trial_config.seed = 99;
  const auto exact = sim::measure_sync(*g, 0, core::Mode::kPushPull, trial_config);

  EXPECT_EQ(summary.count(), exact.size());
  EXPECT_NEAR(summary.mean(), exact.mean(), 1e-12 * exact.mean());
  EXPECT_EQ(summary.min(), exact.min());
  EXPECT_EQ(summary.max(), exact.max());
  // 64 trials sit inside the sketch capacity: quantiles are exact.
  EXPECT_EQ(summary.median(), exact.median());
  EXPECT_EQ(summary.quantile(0.95), exact.quantile(0.95));

  // A full-capacity reservoir, ordered by trial tag, is the per-trial
  // result vector of the harness, bitwise.
  sim::TrialConfig raw_config = trial_config;
  const auto raw = sim::run_trials(raw_config, [&](std::uint64_t, rng::Engine& eng) {
    return static_cast<double>(core::run_sync(*g, 0, eng).rounds);
  });
  EXPECT_EQ(summary.reservoir().values(), raw);
}

// --- Determinism contract ----------------------------------------------------

TEST(Campaign, BitDeterministicAcrossThreadCounts) {
  const auto configs = mixed_configs(48);
  sim::CampaignOptions options;
  options.block_size = 16;

  options.threads = 1;
  const auto serial = sim::run_campaign(configs, options);
  options.threads = 2;
  const auto two = sim::run_campaign(configs, options);
  options.threads = 8;
  const auto eight = sim::run_campaign(configs, options);

  ASSERT_EQ(serial.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Block partials merge in slot order, so every statistic — including
    // the sketch state behind the quantiles — is bit-identical.
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(two[i])) << serial[i].id;
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(eight[i])) << serial[i].id;
  }
}

TEST(Campaign, PerTrialResultsBitIdenticalAcrossBlockSizes) {
  // Full-capacity reservoirs recover exact (trial, value) pairs; those must
  // not depend on block size, thread count, or interleaving.
  const std::uint64_t trials = 48;
  const auto configs = mixed_configs(trials, /*reservoir_capacity=*/trials);

  std::vector<std::vector<std::vector<std::pair<std::uint64_t, double>>>> runs;
  for (const std::uint64_t block_size : {4u, 16u, 64u}) {
    sim::CampaignOptions options;
    options.block_size = block_size;
    options.threads = 8;
    const auto results = sim::run_campaign(configs, options);
    std::vector<std::vector<std::pair<std::uint64_t, double>>> entries;
    entries.reserve(results.size());
    for (const auto& r : results) entries.push_back(r.summary.reservoir().entries());
    runs.push_back(std::move(entries));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);

  // And they equal a serial harness re-run of each configuration.
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (const auto& [tag, value] : runs[0][c]) {
      auto eng = rng::derive_stream(configs[c].seed, tag);
      double expected = 0.0;
      if (configs[c].engine == sim::EngineKind::kSync) {
        expected = static_cast<double>(core::run_sync(*configs[c].prebuilt, 0, eng).rounds);
      } else {
        expected = core::run_async(*configs[c].prebuilt, 0, eng).time;
      }
      EXPECT_EQ(value, expected) << configs[c].id << " trial " << tag;
    }
  }
}

TEST(Campaign, MomentsStableAcrossBlockSizes) {
  // Merged moments are associativity-sensitive at the ulp level only; the
  // statistics must agree to far better than Monte-Carlo noise.
  const auto configs = mixed_configs(60);
  sim::CampaignOptions small_blocks;
  small_blocks.block_size = 4;
  sim::CampaignOptions big_blocks;
  big_blocks.block_size = 60;
  const auto a = sim::run_campaign(configs, small_blocks);
  const auto b = sim::run_campaign(configs, big_blocks);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].summary.mean(), b[i].summary.mean(), 1e-9 * (1.0 + b[i].summary.mean()));
    EXPECT_EQ(a[i].summary.min(), b[i].summary.min());
    EXPECT_EQ(a[i].summary.max(), b[i].summary.max());
  }
}

// --- Spread telemetry (curves) -----------------------------------------------

namespace {

/// Sync and async cells over two topologies, all with spread telemetry
/// enabled (round grid for sync, a 0.5-unit time grid for async). Seeds are
/// 701, 702 on the hypercube and 704, 705 on the cycle.
std::vector<sim::CampaignConfig> curve_configs(std::uint64_t trials) {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kCycle = shared(graph::cycle(48));
  std::vector<sim::CampaignConfig> configs;
  std::uint64_t seed = 700;
  for (const auto& g : {kHypercube, kCycle}) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cfg;
      cfg.id = g->name() + std::string("_") + sim::engine_name(engine) + "_curves";
      cfg.prebuilt = g;
      cfg.engine = engine;
      cfg.trials = trials;
      cfg.seed = ++seed;
      cfg.curves.enabled = true;
      cfg.curves.points = 48;
      cfg.curves.time_bucket = 0.5;
      configs.push_back(std::move(cfg));
    }
  }
  return configs;
}

/// The full serialized curve state plus contact totals, for exact
/// cross-run comparison (vector<double> equality is bitwise here: every
/// component is finite).
std::vector<double> curve_fingerprint(const sim::CampaignResult& r) {
  const auto s = r.curves.state();
  std::vector<double> out = {static_cast<double>(s.trials), static_cast<double>(s.max_len)};
  for (const auto& m : s.moments) {
    out.push_back(static_cast<double>(m.count));
    out.insert(out.end(), {m.mean, m.m2, m.min, m.max});
  }
  for (const auto& sk : s.sketches) {
    out.push_back(static_cast<double>(sk.count));
    for (const auto& level : sk.levels) {
      out.push_back(level.keep_odd ? 1.0 : 0.0);
      out.insert(out.end(), level.items.begin(), level.items.end());
    }
  }
  for (const std::uint64_t v : {r.contacts.contacts, r.contacts.useful_push,
                                r.contacts.useful_pull, r.contacts.wasted_push,
                                r.contacts.wasted_pull, r.contacts.empty_contacts,
                                r.contacts.ticks, r.contacts.informed_total}) {
    out.push_back(static_cast<double>(v));
  }
  return out;
}

}  // namespace

TEST(CampaignCurves, BitIdenticalAcrossThreadCountsStableAcrossBlockSizes) {
  const auto configs = curve_configs(48);
  sim::CampaignOptions serial_options;
  serial_options.threads = 1;
  serial_options.block_size = 8;
  const auto baseline = sim::run_campaign(configs, serial_options);

  // Same block partition, any thread count: partials fold in slot order,
  // so every curve component — moments, sketches, contacts — is
  // bit-identical.
  for (const unsigned threads : {2u, 8u}) {
    sim::CampaignOptions options;
    options.threads = threads;
    options.block_size = 8;
    const auto results = sim::run_campaign(configs, options);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(curve_fingerprint(results[i]), curve_fingerprint(baseline[i]))
          << baseline[i].id << " threads=" << threads;
    }
  }

  // A different block partition regroups the Welford folds: integer
  // components (contacts, trials, max_len, per-point extremes) stay exact,
  // moments agree to far better than Monte-Carlo noise.
  for (const std::uint64_t block_size : {4u, 64u}) {
    sim::CampaignOptions options;
    options.threads = 8;
    options.block_size = block_size;
    const auto results = sim::run_campaign(configs, options);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const auto& b = baseline[i];
      EXPECT_EQ(r.curves.trials(), b.curves.trials()) << r.id;
      EXPECT_EQ(r.curves.max_len(), b.curves.max_len()) << r.id;
      auto contact_fields = [](const stats::ContactTotals& c) {
        return std::array<std::uint64_t, 8>{c.contacts,       c.useful_push, c.useful_pull,
                                            c.wasted_push,    c.wasted_pull, c.empty_contacts,
                                            c.ticks,          c.informed_total};
      };
      EXPECT_EQ(contact_fields(r.contacts), contact_fields(b.contacts))
          << r.id << " block=" << block_size;
      for (std::size_t k = 0; k < r.curves.points(); ++k) {
        EXPECT_EQ(r.curves.moments_at(k).min(), b.curves.moments_at(k).min()) << r.id;
        EXPECT_EQ(r.curves.moments_at(k).max(), b.curves.moments_at(k).max()) << r.id;
        EXPECT_NEAR(r.curves.mean_at(k), b.curves.mean_at(k),
                    1e-9 * (1.0 + b.curves.mean_at(k))) << r.id << " point " << k;
      }
    }
  }
}

TEST(CampaignCurves, ConservationHoldsExactlyAndReportCarriesCurves) {
  const auto configs = curve_configs(32);
  const auto results = sim::run_campaign(configs, {});
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_curves) << r.id;
    EXPECT_EQ(r.curves.trials(), r.trials) << r.id;
    // Every node beyond the source is informed by exactly one useful
    // transmission; all trials run to full informedness.
    EXPECT_EQ(r.contacts.informed_total, r.trials * r.n) << r.id;
    EXPECT_EQ(r.contacts.useful_push + r.contacts.useful_pull,
              r.contacts.informed_total - r.trials) << r.id;
    // The curve starts at the lone source; once the grid covers the
    // slowest trial it sits exactly at n (the cycle cells may outrun the
    // grid — saturation only applies where the grid reaches).
    EXPECT_EQ(r.curves.mean_at(0), 1.0) << r.id;
    if (r.curves.max_len() <= r.curves.points()) {
      EXPECT_EQ(r.curves.mean_at(r.curves.max_len() - 1), static_cast<double>(r.n)) << r.id;
    }

    const sim::Json report = sim::campaign_report(r, "curves_unit");
    const sim::Json* stats = report.find("stats");
    ASSERT_NE(stats, nullptr) << r.id;
    const sim::Json* curves = stats->find("curves");
    ASSERT_NE(curves, nullptr) << r.id;
    const bool time_grid = r.engine == "async";
    EXPECT_EQ(curves->find("grid")->as_string(), time_grid ? "time" : "rounds") << r.id;
    EXPECT_EQ(curves->find("mean")->elements().size(), r.curves.points()) << r.id;
    EXPECT_NE(curves->find("phases"), nullptr) << r.id;
    EXPECT_EQ(curves->find("contacts")->find("ticks")->as_number(),
              static_cast<double>(r.contacts.ticks)) << r.id;
  }
  // Curves off: the report must not grow a curves block.
  auto plain = curve_configs(8);
  plain.resize(1);
  plain[0].curves.enabled = false;
  const auto off = sim::run_campaign(plain, {});
  EXPECT_FALSE(off[0].has_curves);
  EXPECT_EQ(sim::campaign_report(off[0], "curves_unit").find("stats")->find("curves"), nullptr);
}

TEST(CampaignCurves, ReportContactsBlockBytesArePinned) {
  // stats.curves.contacts as the report has always rendered it: the eight
  // totals in one key order, compact here, for a sync and an async cell.
  const std::string want[] = {
      "{\"contacts\":11968,\"useful_push\":844,\"useful_pull\":668,\"wasted_push\":3934,"
      "\"wasted_pull\":4084,\"empty_contacts\":6181,\"ticks\":187,\"informed_total\":1536}",
      "{\"contacts\":8863,\"useful_push\":719,\"useful_pull\":793,\"wasted_push\":3262,"
      "\"wasted_pull\":3262,\"empty_contacts\":4089,\"ticks\":8863,\"informed_total\":1536}",
  };
  auto configs = curve_configs(24);
  configs.resize(2);
  const auto results = sim::run_campaign(configs, {});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::Json report = sim::campaign_report(results[i], "curves_unit");
    EXPECT_EQ(report.find("stats")->find("curves")->find("contacts")->dump(), want[i])
        << results[i].id;
  }
}

TEST(CampaignCurves, RejectsAuxEnginesAndRacedSources) {
  sim::CampaignConfig aux;
  aux.id = "aux_curves";
  aux.prebuilt = shared(graph::hypercube(5));
  aux.engine = sim::EngineKind::kAux;
  aux.trials = 4;
  aux.curves.enabled = true;
  EXPECT_THROW((void)sim::run_campaign({aux}, {}), std::runtime_error);

  sim::CampaignConfig race;
  race.id = "race_curves";
  race.prebuilt = shared(graph::star(32));
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 2;
  race.race.finalists = 1;
  race.trials = 4;
  race.curves.enabled = true;
  EXPECT_THROW((void)sim::run_campaign({race}, {}), std::runtime_error);

  sim::CampaignConfig zero_points;
  zero_points.id = "zero_points";
  zero_points.prebuilt = shared(graph::hypercube(5));
  zero_points.trials = 4;
  zero_points.curves.enabled = true;
  zero_points.curves.points = 0;
  EXPECT_THROW((void)sim::run_campaign({zero_points}, {}), std::runtime_error);
}

TEST(CampaignCurves, TinyTimeBucketsCutTheCurveOrFailNamingTheKey) {
  sim::CampaignConfig cfg;
  cfg.id = "tiny_bucket";
  cfg.prebuilt = shared(graph::star(16));
  cfg.engine = sim::EngineKind::kAsync;
  cfg.trials = 1;
  cfg.seed = 3;
  cfg.curves.enabled = true;
  cfg.curves.points = 8;
  cfg.curves.time_bucket = 1e-4;
  const auto results = sim::run_campaign({cfg}, {});
  ASSERT_EQ(results.size(), 1u);

  // The uncut curve, straight from its definition, folds to the same state:
  // curve[k] = |{v : t_v <= k * bucket}| up to the first k covering them all.
  rng::Engine eng = rng::derive_stream(cfg.seed, 0);
  const auto outcome = core::run_trial(core::EngineKind::kAsync, *cfg.prebuilt, 0, eng);
  const double latest = *std::max_element(outcome.informed_time.begin(),
                                          outcome.informed_time.end());
  std::vector<double> uncut;
  for (std::uint64_t k = 0; uncut.empty() || uncut.back() < 16.0; ++k) {
    const double edge = static_cast<double>(k) * cfg.curves.time_bucket;
    uncut.push_back(static_cast<double>(
        std::count_if(outcome.informed_time.begin(), outcome.informed_time.end(),
                      [&](double t) { return t <= edge; })));
  }
  EXPECT_GE(static_cast<double>(uncut.size() - 1) * cfg.curves.time_bucket, latest);
  stats::CurveAccumulator want(sim::curve_options_for(cfg, sim::CampaignOptions{}.sketch_capacity));
  want.add(uncut);
  EXPECT_EQ(results[0].curves.max_len(), 28452u);  // the length the uncut curve always had
  EXPECT_EQ(want.max_len(), results[0].curves.max_len());
  EXPECT_EQ(want.state().moments.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(results[0].curves.mean_at(k), want.mean_at(k)) << "point " << k;
  }

  // A bucket whose index for the latest time passes 2^53 fails the run.
  cfg.curves.time_bucket = 1e-300;
  try {
    (void)sim::run_campaign({cfg}, {});
    FAIL() << "expected a time_bucket error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("time_bucket"), std::string::npos) << what;
    EXPECT_NE(what.find("tiny_bucket"), std::string::npos) << what;
  }
}

// --- Error handling ----------------------------------------------------------

TEST(Campaign, PropagatesTrialFailures) {
  // path(2) is connected, but a two-node path with an unreachable source
  // cap is hard to provoke; instead use trials=0 (rejected up front) and an
  // unknown family (thrown on the worker during lazy graph construction).
  sim::CampaignConfig zero;
  zero.prebuilt = shared(graph::complete(8));
  zero.trials = 0;
  EXPECT_THROW((void)sim::run_campaign({zero}, {}), std::runtime_error);

  sim::CampaignConfig bad_family;
  bad_family.graph.family = "no_such_family";
  bad_family.graph.n = 16;
  bad_family.trials = 4;
  sim::CampaignOptions parallel_options;
  parallel_options.threads = 4;
  EXPECT_THROW((void)sim::run_campaign({bad_family}, parallel_options), std::runtime_error);
}

TEST(Campaign, RejectsOutOfRangeSource) {
  // The engines only assert() source < n (compiled out in Release); the
  // campaign must reject spec-supplied sources at runtime instead.
  sim::CampaignConfig cfg;
  cfg.graph.family = "star";
  cfg.graph.n = 32;
  cfg.source = 64;
  cfg.trials = 4;
  EXPECT_THROW((void)sim::run_campaign({cfg}, {}), std::runtime_error);
}

// --- build_graph -------------------------------------------------------------

TEST(CampaignGraphSpec, BuildsEveryNamedFamily) {
  for (const char* family :
       {"complete", "star", "double_star", "path", "cycle", "wheel", "tree",
        "complete_bipartite", "torus", "torus3d", "hypercube", "erdos_renyi",
        "random_regular", "chung_lu", "preferential_attachment", "watts_strogatz", "lollipop",
        "barbell", "chain_of_stars", "bundle_chain"}) {
    sim::GraphSpec spec;
    spec.family = family;
    spec.n = 64;
    const auto g = sim::build_graph(spec, /*fallback_seed=*/11);
    EXPECT_GE(g.num_nodes(), 2u) << family;
    EXPECT_GE(g.num_edges(), g.num_nodes() - 1) << family;  // connected => n-1 edges minimum
  }
}

TEST(CampaignGraphSpec, RejectsBadSpecs) {
  sim::GraphSpec unknown;
  unknown.family = "banana";
  unknown.n = 16;
  EXPECT_THROW((void)sim::build_graph(unknown, 1), std::runtime_error);

  sim::GraphSpec tiny;
  tiny.family = "complete";
  tiny.n = 1;
  EXPECT_THROW((void)sim::build_graph(tiny, 1), std::runtime_error);
}

TEST(CampaignGraphSpec, StructuralFamiliesEqualTheirGenerators) {
  // The n -> shape mapping of each structural "gap" family, against the
  // direct generator call it stands for.
  struct Case {
    const char* family;
    std::uint64_t n;
    graph::Graph direct;
  };
  const Case cases[] = {
      {"lollipop", 41, graph::lollipop(20, 21)},
      {"barbell", 50, graph::barbell(16, 18)},
      {"chain_of_stars", 90, graph::chain_of_stars(9, 9)},
      {"bundle_chain", 300, graph::bundle_chain(11, 30)},
  };
  for (const Case& c : cases) {
    sim::GraphSpec spec;
    spec.family = c.family;
    spec.n = c.n;
    const auto g = sim::build_graph(spec, 1);
    EXPECT_EQ(g.name(), c.direct.name()) << c.family;
    ASSERT_EQ(g.num_nodes(), c.direct.num_nodes()) << c.family;
    EXPECT_EQ(g.num_edges(), c.direct.num_edges()) << c.family;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto a = g.neighbors(v);
      const auto b = c.direct.neighbors(v);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << c.family << " node " << v;
    }
  }
  // Below two clique nodes or hubs the families have no shape.
  const std::pair<const char*, std::uint64_t> too_small[] = {
      {"lollipop", 3}, {"barbell", 5}, {"chain_of_stars", 2}};
  for (const auto& [family, n] : too_small) {
    sim::GraphSpec spec;
    spec.family = family;
    spec.n = n;
    EXPECT_THROW((void)sim::build_graph(spec, 1), std::runtime_error) << family;
  }
}

TEST(CampaignGraphSpec, GraphSeedIsReproducible) {
  sim::GraphSpec spec;
  spec.family = "random_regular";
  spec.n = 64;
  spec.degree = 4;
  spec.graph_seed = 77;
  const auto a = sim::build_graph(spec, 1);
  const auto b = sim::build_graph(spec, 2);  // fallback ignored: explicit seed wins
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.neighbors(v).size(), b.neighbors(v).size());
  }
}

// --- Spec parsing ------------------------------------------------------------

namespace {

}  // namespace

TEST(CampaignSpecParsing, ExpandsArraysAsCrossProduct) {
  const auto spec = parse(R"({
    "name": "sweep",
    "defaults": {"trials": 10, "seed": 3, "mode": "push"},
    "configs": [
      {"graph": "star", "n": [64, 128, 256], "engine": ["sync", "async"]},
      {"graph": "cycle", "n": 32, "mode": ["push", "pull", "push-pull"]}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  EXPECT_EQ(spec.name, "sweep");
  ASSERT_EQ(spec.configs.size(), 9u);  // 3 sizes x 2 engines + 3 modes
  EXPECT_EQ(spec.configs[0].id, "star_n64_sync_push");
  EXPECT_EQ(spec.configs[1].id, "star_n64_async_push");
  EXPECT_EQ(spec.configs[0].trials, 10u);
  EXPECT_EQ(spec.configs[0].seed, 3u);
  EXPECT_EQ(spec.configs[8].mode, core::Mode::kPushPull);
  EXPECT_EQ(spec.configs[8].id, "cycle_n32_sync_push-pull");
}

TEST(CampaignSpecParsing, ExplicitViewOverridesDefaultsView) {
  const auto spec = parse(R"({
    "defaults": {"view": "per-node", "engine": "async"},
    "configs": [
      {"id": "global", "graph": "star", "n": 32, "view": "global-clock"},
      {"id": "per-node", "graph": "star", "n": 32}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(spec.configs[0].view, core::AsyncView::kGlobalClock);
  EXPECT_EQ(spec.configs[1].view, core::AsyncView::kPerNodeClocks);
}

TEST(CampaignSpecParsing, DuplicateIdsAreRejectedNamingBothCells) {
  // Checkpoints, shards, and merge address configurations by id, so a
  // collision (auto-derived here: same graph/engine/mode, differing only in
  // seed) must be rejected rather than silently suffixed.
  const auto spec = parse(R"({"configs": [
      {"graph": "star", "n": 64},
      {"graph": "star", "n": 64, "seed": 9}
    ]})");
  ASSERT_FALSE(spec.error.empty());
  EXPECT_NE(spec.error.find("configs[1]"), std::string::npos) << spec.error;
  EXPECT_NE(spec.error.find("configs[0]"), std::string::npos) << spec.error;
  EXPECT_NE(spec.error.find("star_n64_sync_push-pull"), std::string::npos) << spec.error;

  // Explicit duplicate ids are rejected the same way.
  const auto explicit_dup = parse(R"({"configs": [
      {"id": "cell", "graph": "star", "n": 64},
      {"id": "cell", "graph": "cycle", "n": 32}
    ]})");
  ASSERT_FALSE(explicit_dup.error.empty());
  EXPECT_NE(explicit_dup.error.find("'cell'"), std::string::npos) << explicit_dup.error;

  // Distinct explicit ids resolve the collision.
  const auto fixed = parse(R"({"configs": [
      {"id": "a", "graph": "star", "n": 64},
      {"id": "b", "graph": "star", "n": 64, "seed": 9}
    ]})");
  ASSERT_TRUE(fixed.error.empty()) << fixed.error;
  ASSERT_EQ(fixed.configs.size(), 2u);
}

TEST(CampaignSpecParsing, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse(R"([1, 2])").error.empty());                    // not an object
  EXPECT_FALSE(parse(R"({"configs": []})").error.empty());           // empty configs
  EXPECT_FALSE(parse(R"({"configs": [{"n": 64}]})").error.empty());  // missing graph
  EXPECT_FALSE(parse(R"({"configs": [{"graph": "star"}]})").error.empty());  // missing n
  EXPECT_FALSE(
      parse(R"({"configs": [{"graph": "star", "n": 64, "trails": 5}]})").error.empty());  // typo
  EXPECT_FALSE(parse(R"({"configs": [{"graph": "star", "n": 64, "engine": "warp"}]})")
                   .error.empty());  // unknown engine
  EXPECT_FALSE(parse(R"({"configs": [{"graph": "star", "n": 1}]})").error.empty());  // n < 2
}

TEST(CampaignSpecParsing, RejectsNegativeAndFractionalCounts) {
  // Negative doubles must never reach an unsigned cast (UB); fractional
  // trial counts are almost certainly user error.
  for (const char* bad : {R"({"configs": [{"graph": "star", "n": 64, "trials": -1}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "seed": -3}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "source": -1}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "trials": 2.5}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "hp_q": 1.5}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "p": -0.2}]})",
                          // Integers must fit their field: no silent wrap or
                          // out-of-range double-to-integer cast.
                          R"({"configs": [{"graph": "star", "n": 64, "source": 4294967296}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "seed": 1e30}]})",
                          R"({"configs": [{"graph": "star", "n": 64.7}]})",
                          R"({"configs": [{"graph": "star", "n": 64,
                                           "curves": {"points": 4294967297}}]})",
                          R"({"configs": [{"graph": "star", "n": 64, "degree": 4294967300}]})"}) {
    EXPECT_FALSE(parse(bad).error.empty()) << bad;
  }
}

TEST(CampaignSpecParsing, SpecParserAndRunCampaignRejectTheSameConfigs) {
  // One copy of every config rule: each spec entry below fails to parse, and
  // the same configuration handed to run_campaign directly throws with the
  // same rule in its message.
  const struct {
    const char* keys;  // added to {"graph": "star", "n": 16, "trials": 4}
    void (*apply)(sim::CampaignConfig&);
  } cases[] = {
      {R"("message_loss": 1.0)", [](sim::CampaignConfig& c) { c.message_loss = 1.0; }},
      {R"("hp_q": 1.5)", [](sim::CampaignConfig& c) { c.hp_q = 1.5; }},
      {R"("p": -0.2)", [](sim::CampaignConfig& c) { c.graph.p = -0.2; }},
      {R"("beta": 0)", [](sim::CampaignConfig& c) { c.graph.beta = 0.0; }},
      {R"("average_degree": -1)", [](sim::CampaignConfig& c) { c.graph.average_degree = -1.0; }},
      {R"("source": "race", "screen_trials": 0)",
       [](sim::CampaignConfig& c) {
         c.source_policy = sim::SourcePolicy::kRace;
         c.race.screen_trials = 0;
       }},
      {R"("source": "race", "race": {"finalists": 0})",
       [](sim::CampaignConfig& c) {
         c.source_policy = sim::SourcePolicy::kRace;
         c.race.finalists = 0;
       }},
      {R"("dynamics": {"churn": "markov", "birth": 1.5})",
       [](sim::CampaignConfig& c) {
         c.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
         c.dynamics.churn.birth = 1.5;
       }},
      {R"("dynamics": {"churn": "rewire", "rewire_p": -0.1})",
       [](sim::CampaignConfig& c) {
         c.dynamics.churn.model = dynamics::ChurnModel::kRewire;
         c.dynamics.churn.rewire = -0.1;
       }},
      {R"("dynamics": {"churn": "markov", "period": 0})",
       [](sim::CampaignConfig& c) {
         c.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
         c.dynamics.churn.period = 0;
       }},
      {R"("dynamics": {"weights": "heavy_tailed", "weight_alpha": 0})",
       [](sim::CampaignConfig& c) {
         c.dynamics.weights.model = dynamics::WeightModel::kHeavyTailed;
         c.dynamics.weights.alpha = 0.0;
       }},
      {R"("engine": "aux", "dynamics": {"churn": "markov"})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kAux;
         c.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
       }},
      {R"("engine": "aux", "dynamics": {"weights": "uniform"})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kAux;
         c.dynamics.weights.model = dynamics::WeightModel::kUniform;
       }},
      {R"("engine": "async", "view": "per-edge", "dynamics": {"churn": "rewire"})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kAsync;
         c.view = core::AsyncView::kPerEdgeClocks;
         c.dynamics.churn.model = dynamics::ChurnModel::kRewire;
       }},
      {R"("engine": {"kind": "batch_sync", "lanes": 65})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kBatchSync;
         c.lanes = 65;
       }},
      {R"("engine": "batch_sync", "source": "race")",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kBatchSync;
         c.source_policy = sim::SourcePolicy::kRace;
       }},
      {R"("engine": "aux", "curves": {})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kAux;
         c.curves.enabled = true;
       }},
      {R"("engine": "batch_sync", "curves": {})",
       [](sim::CampaignConfig& c) {
         c.engine = sim::EngineKind::kBatchSync;
         c.curves.enabled = true;
       }},
      {R"("source": "race", "curves": {})",
       [](sim::CampaignConfig& c) {
         c.source_policy = sim::SourcePolicy::kRace;
         c.curves.enabled = true;
       }},
      {R"("curves": {"points": 0})",
       [](sim::CampaignConfig& c) {
         c.curves.enabled = true;
         c.curves.points = 0;
       }},
      {R"("curves": {"time_bucket": 0})",
       [](sim::CampaignConfig& c) {
         c.curves.enabled = true;
         c.curves.time_bucket = 0.0;
       }},
  };
  for (const auto& c : cases) {
    const auto spec =
        parse(std::string(R"({"configs": [{"graph": "star", "n": 16, "trials": 4, )") + c.keys +
              "}]}");
    ASSERT_FALSE(spec.error.empty()) << c.keys;
    const std::string prefix = "configs[0]: ";
    ASSERT_EQ(spec.error.rfind(prefix, 0), 0u) << spec.error;
    const std::string rule = spec.error.substr(prefix.size());

    sim::CampaignConfig cfg;
    cfg.id = "cell";
    cfg.graph.family = "star";
    cfg.graph.n = 16;
    cfg.trials = 4;
    c.apply(cfg);
    try {
      (void)sim::run_campaign({cfg}, {});
      ADD_FAILURE() << "run_campaign accepted " << c.keys;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "campaign: configuration 'cell': " + rule) << c.keys;
    }
  }
}

TEST(CampaignSpecParsing, RejectsUnknownAndMisplacedDefaultsKeys) {
  // The typo protection config entries get must cover shared values too.
  EXPECT_FALSE(parse(R"({"defaults": {"trails": 1000},
                         "configs": [{"graph": "star", "n": 64}]})").error.empty());
  EXPECT_FALSE(parse(R"({"defaults": {"graph": "star"},
                         "configs": [{"graph": "star", "n": 64}]})").error.empty());
  // A default is checked even where every entry overrides it.
  const auto bad_default = parse(R"({"defaults": {"hp_q": 1.5},
                                     "configs": [{"graph": "star", "n": 64, "hp_q": 0.1}]})");
  EXPECT_EQ(bad_default.error.rfind("defaults: ", 0), 0u) << bad_default.error;
  // A non-string id is an error on the entry it appears in.
  const auto spec = parse(R"({"configs": [{"graph": "star", "n": 64, "id": 7}]})");
  EXPECT_NE(spec.error.find("configs[0]"), std::string::npos) << spec.error;
}

TEST(CampaignSpecParsing, AcceptedSpecsKeepTheirFingerprints) {
  // campaign_fingerprint covers every CampaignConfig field, so a pinned
  // fingerprint proves a spec still parses to the same configuration list.
  // Re-pin only for a deliberate change in what a spec means.
  auto read_file = [](const std::string& relative) {
    std::ifstream file(std::string(RUMOR_SOURCE_DIR) + "/" + relative, std::ios::binary);
    EXPECT_TRUE(file.good()) << relative;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
  };
  const struct {
    std::string what;
    std::string text;
    const char* fingerprint;
  } corpus[] = {
      {"ci smoke", read_file("bench/ci_smoke_campaign.json"), "3e6c2472089514a4"},
      {"ci curves", read_file("bench/ci_curves_campaign.json"), "9b6c31e15f47d4ce"},
      // perfbench/workloads.py at seed 1.
      {"paper_sweep",
       R"({"configs": [{"engine": ["sync", "async"], "graph": "hypercube", "n": 16384},
          {"degree": 6, "engine": ["sync", "async"], "graph": "random_regular", "n": 16384},
          {"engine": ["sync", "async"], "graph": "star", "n": 4096},
          {"engine": ["sync", "async"], "graph": "double_star", "n": 1024},
          {"engine": {"kind": "batch_sync", "lanes": 64}, "graph": "hypercube", "n": 16384,
           "seed": 1561852070},
          {"degree": 6, "engine": {"kind": "batch_sync", "lanes": 64}, "graph": "random_regular",
           "n": 16384, "seed": 1561852070}],
          "defaults": {"graph_seed": 360672369, "mode": "push-pull", "seed": 1921680141,
                       "source": 0, "trials": 256},
          "name": "paper_sweep"})",
       "1cc189647da4c5bc"},
      {"checkpointed_grid",
       R"({"configs": [
          {"engine": ["sync", "async"], "graph": "cycle", "mode": ["push", "pull", "push-pull"],
           "n": [64, 81, 100, 121, 144, 169, 196, 225]},
          {"engine": ["sync", "async"], "graph": "wheel", "mode": ["push", "pull", "push-pull"],
           "n": [64, 81, 100, 121, 144, 169, 196, 225]},
          {"engine": ["sync", "async"], "graph": "torus", "mode": ["push", "pull", "push-pull"],
           "n": [64, 81, 100, 121, 144, 169, 196, 225]},
          {"engine": ["sync", "async"], "graph": "tree", "mode": ["push", "pull", "push-pull"],
           "n": [64, 81, 100, 121, 144, 169, 196, 225]},
          {"degree": 4, "engine": ["sync", "async"], "graph": "random_regular",
           "graph_seed": 908241220, "mode": ["push", "pull", "push-pull"],
           "n": [64, 81, 100, 121, 144, 169, 196, 225]},
          {"engine": ["sync", "async"], "graph": "erdos_renyi", "graph_seed": 908241220,
           "mode": ["push", "pull", "push-pull"], "n": [64, 81, 100, 121, 144, 169, 196, 225],
           "p": 0.1}],
          "defaults": {"seed": 861003673, "source": 0, "trials": 64},
          "name": "checkpointed_grid"})",
       "1f1b32cfb286e1cd"},
      {"defaults merge under entry overrides",
       R"({"name": "merge",
          "defaults": {"trials": 50, "seed": 9, "engine": "async", "mode": "push", "source": 3,
                       "hp_q": 0.05, "message_loss": 0.1, "reservoir_capacity": 100,
                       "view": "per-node"},
          "configs": [{"graph": "star", "n": [16, 32]},
                      {"graph": "cycle", "n": 20, "engine": "sync", "mode": ["pull", "push-pull"],
                       "trials": 7, "seed": 2, "view": "global-clock"}]})",
       "27241fac46ef432f"},
      {"flat race keys",
       R"({"configs": [{"graph": "star", "n": 64, "source": "race", "screen_trials": 6,
                        "finalists": 3, "final_trials": 20, "max_candidates": 10}]})",
       "b13098d0c6dc8961"},
      {"flat race keys win over the race block",
       R"({"defaults": {"race": {"screen_trials": 5, "finalists": 2}, "final_trials": 9},
          "configs": [{"graph": "star", "n": 64, "source": "race", "screen_trials": 3,
                       "race": {"screen_trials": 7, "max_candidates": 0}},
                      {"graph": "wheel", "n": 30, "source": "race", "finalists": 5,
                       "race": {"finalists": 1}}]})",
       "e13352aff3a53fac"},
      {"flat generator keys in defaults and entries",
       R"({"defaults": {"degree": 4, "graph_seed": 11, "p": 0.2, "beta": 2.2,
                        "average_degree": 5},
          "configs": [{"graph": "random_regular", "n": 64},
                      {"graph": "erdos_renyi", "n": 50, "p": 0.3}]})",
       "2e7f13c617d19a2c"},
      {"the graph object wins over flat generator keys",
       R"({"configs": [
          {"graph": {"kind": "random_regular", "degree": 8, "graph_seed": 5}, "n": 64,
           "degree": 4, "graph_seed": 99},
          {"graph": {"kind": "chung_lu", "beta": 2.1, "average_degree": 6}, "n": 500, "beta": 3},
          {"graph": {"kind": "watts_strogatz", "p": 0.05}, "n": 100, "p": 0.5, "degree": 6}]})",
       "775d5e710e1516f7"},
      {"engine names and objects",
       R"({"configs": [{"graph": "hypercube", "n": 64, "mode": ["push", "pull"],
                        "engine": ["sync", {"kind": "batch_sync", "lanes": 8},
                                   {"kind": "batch_sync"}, {"kind": "async"}]}]})",
       "4a7ea3bf5e691d91"},
      {"dynamics merged key by key",
       R"({"defaults": {"dynamics": {"churn": "markov", "birth": 0.05, "death": 0.05,
                                     "period": 2}},
          "configs": [{"graph": "star", "n": 64},
                      {"id": "override", "graph": "star", "n": 64,
                       "dynamics": {"death": 0.5, "weights": "heavy_tailed",
                                    "weight_alpha": 1.5, "dynamics_seed": 7}},
                      {"graph": "cycle", "n": 32, "engine": "async",
                       "dynamics": {"churn": "rewire", "rewire_p": 0.2, "weights": "degree"}},
                      {"graph": "path", "n": 32,
                       "dynamics": {"churn": "none", "weights": "uniform"}}]})",
       "855eff330bf2be0c"},
      {"curves",
       R"({"configs": [{"graph": "hypercube", "n": 64, "engine": ["sync", "async"],
                        "curves": {"points": 96, "time_bucket": 0.25}},
                       {"graph": "star", "n": 32, "curves": {}}]})",
       "ed134d8573f4bd6a"},
      {"auto-derived and explicit ids",
       R"({"name": "ids",
          "configs": [{"graph": "star", "n": [8, 9], "engine": "aux", "aux": "ppy"},
                      {"id": "explicit", "graph": "path", "n": 10},
                      {"id": "", "graph": "torus", "n": 25, "source": "race"},
                      {"graph": "hypercube", "n": 16, "dynamics": {"weights": "uniform"}}]})",
       "36833aabdb89c8cd"},
      {"source forms",
       R"({"defaults": {"source": "race"},
          "configs": [{"graph": "star", "n": 40, "source": "fixed"},
                      {"graph": "star", "n": 41, "source": 5},
                      {"graph": "star", "n": 42}]})",
       "2ac29634a929c3f1"},
      {"views, aux kinds, loss and hp_q",
       R"({"configs": [{"graph": "complete", "n": 16, "engine": "async", "view": "per-edge",
                        "message_loss": 0.3, "hp_q": 0.01},
                       {"graph": "complete", "n": 17, "engine": "async", "view": "global-clock"},
                       {"graph": "double_star", "n": 18, "engine": "aux", "aux": "ppx",
                        "view": "per-node"}]})",
       "4599b5f15b76d712"},
      {"empty model names keep the inherited value",
       R"({"defaults": {"view": "per-node", "aux": "ppy",
                        "dynamics": {"churn": "markov", "weights": "uniform"}},
          "configs": [{"graph": "star", "n": 64, "view": "", "aux": "",
                       "dynamics": {"churn": "", "weights": ""}}]})",
       "7c248b41df4aa4b3"},
      {"integers at the edge of their field",
       R"({"configs": [{"graph": "star", "n": 64, "trials": 1, "source": 4294967295,
                        "seed": 9007199254740992, "graph_seed": 18446744073709549568,
                        "degree": 4294967295, "max_candidates": 4294967295}]})",
       "58dfbeae459552d4"},
  };
  for (const auto& c : corpus) {
    const auto spec = parse(c.text);
    ASSERT_TRUE(spec.error.empty()) << c.what << ": " << spec.error;
    EXPECT_EQ(sim::campaign_fingerprint(spec.name, spec.configs), c.fingerprint) << c.what;
  }
}

// --- Scale: a thousand configurations under fixed memory ---------------------

TEST(CampaignScale, ThousandConfigurationsReduceToConstantSizeSummaries) {
  // 1000 configurations x 2 trials on small graphs. The point is not the
  // statistics but the mechanics: one shared queue schedules every block,
  // each configuration's graph is built lazily and freed on completion, and
  // what survives is ~1000 constant-size summaries (reservoir <= capacity,
  // sketch buffers bounded) rather than 1000 sample vectors.
  const char* families[] = {"path", "star", "cycle", "complete"};
  std::vector<sim::CampaignConfig> configs;
  configs.reserve(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    sim::CampaignConfig cfg;
    cfg.graph.family = families[i % 4];
    cfg.graph.n = 8 + (i % 25);
    cfg.engine = (i % 8 == 7) ? sim::EngineKind::kAsync : sim::EngineKind::kSync;
    cfg.trials = 2;
    cfg.seed = 1 + i;
    configs.push_back(std::move(cfg));
  }
  sim::CampaignOptions options;
  options.threads = 4;
  options.block_size = 1;
  options.reservoir_capacity = 16;
  const auto results = sim::run_campaign(configs, options);
  ASSERT_EQ(results.size(), 1000u);
  for (const auto& r : results) {
    EXPECT_EQ(r.summary.count(), 2u);
    EXPECT_GT(r.summary.mean(), 0.0);
    EXPECT_LE(r.summary.reservoir().size(), 16u);
    EXPECT_LE(r.summary.sketch().stored(), 2u);
    EXPECT_GE(r.n, 8u);
  }
}

// --- Worst-source racing (SourcePolicy::kRace) -------------------------------

namespace {

/// A race configuration over a prebuilt graph: `trials` refinement trials
/// per finalist.
sim::CampaignConfig race_config(std::shared_ptr<const graph::Graph> g, sim::EngineKind engine,
                                const sim::SourceRaceOptions& race, std::uint64_t trials,
                                std::uint64_t seed) {
  sim::CampaignConfig cfg;
  cfg.id = "race";
  cfg.prebuilt = std::move(g);
  cfg.engine = engine;
  cfg.source_policy = sim::SourcePolicy::kRace;
  cfg.race = race;
  cfg.seed = seed;
  cfg.trials = trials;
  return cfg;
}

/// The race oracle (tests/support/race_oracle.hpp) adds trial by trial;
/// the campaign merges per-block moments, so refined means agree to
/// rounding, not to the bit.
constexpr double kRaceMeanRelTol = 1e-12;

void expect_matches_oracle(const sim::CampaignResult& r, const sim::WorstSourceResult& oracle,
                           const std::string& label) {
  EXPECT_EQ(r.source, oracle.source) << label;
  EXPECT_NEAR(r.summary.mean(), oracle.mean_time, kRaceMeanRelTol * oracle.mean_time) << label;
  EXPECT_EQ(r.best_source, oracle.best_source) << label;
  EXPECT_NEAR(r.best_mean, oracle.best_mean_time, kRaceMeanRelTol * oracle.best_mean_time)
      << label;
}

}  // namespace

TEST(CampaignRace, MatchesFindWorstSourceOnStarAndLollipop) {
  // The acceptance bar: a campaign `source: "race"` cell and the serial
  // race oracle must pick the same worst and best source ids, with the
  // same refined means up to kRaceMeanRelTol — sync and async, with the
  // refine pass spanning two blocks.
  sim::SourceRaceOptions race;
  race.screen_trials = 6;
  race.max_candidates = 24;
  for (const auto& g : {shared(graph::star(96)), shared(graph::lollipop(24, 24))}) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      const auto oracle = sim::find_worst_source(*g, engine, core::Mode::kPushPull, race, 40, 17);
      const auto results = sim::run_campaign({race_config(g, engine, race, 40, 17)}, {});
      ASSERT_EQ(results.size(), 1u);
      expect_matches_oracle(results[0], oracle, g->name() + " " + sim::engine_name(engine));
      EXPECT_EQ(results[0].summary.count(), 40u);
    }
  }
}

TEST(CampaignRace, RacedSourceBitDeterministicAcrossThreadCounts) {
  // The race's screen and refine passes are scheduled as blocks on the
  // shared queue; per-candidate partials merge in slot order, so the raced
  // source AND its refined summary are bit-identical at any thread count —
  // even with ordinary fixed-source cells competing for the same workers.
  static const auto kLollipop = shared(graph::lollipop(24, 24));
  sim::SourceRaceOptions race;
  race.screen_trials = 6;
  race.max_candidates = 16;

  std::vector<sim::CampaignConfig> configs = mixed_configs(32);
  configs.push_back(race_config(kLollipop, sim::EngineKind::kSync, race, 48, 5));
  configs.push_back(race_config(kLollipop, sim::EngineKind::kAsync, race, 48, 5));

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
    EXPECT_EQ(serial[i].source, two[i].source) << serial[i].id;
    EXPECT_EQ(serial[i].source, eight[i].source) << serial[i].id;
    EXPECT_EQ(serial[i].best_source, eight[i].best_source) << serial[i].id;
    EXPECT_EQ(serial[i].best_mean, eight[i].best_mean) << serial[i].id;
  }
  // The race actually raced: worst >= best, and on the lollipop the worst
  // sync source sits in the far half of the tail (nodes 36..47).
  const auto& sync_race = serial[serial.size() - 2];
  EXPECT_GE(sync_race.summary.mean(), sync_race.best_mean);
  EXPECT_GE(sync_race.source, 36u);
}

TEST(CampaignRace, SpecDrivenRaceMatchesFindWorstSource) {
  // End-to-end through the JSON spec front end (what `rumor_bench
  // --campaign` executes): a spec-built star must race to the same source
  // and means as the serial race oracle on an identically built star.
  const auto spec = parse(R"({"configs": [
      {"graph": "star", "n": 96, "source": "race", "trials": 40,
       "screen_trials": 6, "finalists": 4, "max_candidates": 24, "seed": 17}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].source_policy, sim::SourcePolicy::kRace);
  EXPECT_EQ(spec.configs[0].id, "star_n96_sync_push-pull_race");

  sim::SourceRaceOptions race;
  race.screen_trials = 6;
  race.max_candidates = 24;
  const auto oracle = sim::find_worst_source(graph::star(96), sim::EngineKind::kSync,
                                             core::Mode::kPushPull, race, 40, 17);
  for (const unsigned threads : {1u, 2u, 8u}) {
    sim::CampaignOptions options;
    options.threads = threads;
    const auto results = sim::run_campaign(spec.configs, options);
    expect_matches_oracle(results[0], oracle, "threads=" + std::to_string(threads));
  }
}

TEST(CampaignRace, ReportCarriesRaceOutcome) {
  sim::SourceRaceOptions race;
  race.screen_trials = 4;
  race.max_candidates = 8;
  const auto results = sim::run_campaign(
      {race_config(shared(graph::star(64)), sim::EngineKind::kSync, race, 16, 1)}, {});
  const sim::Json report = sim::campaign_report(results[0], "unit");
  EXPECT_EQ(report.find("params")->find("source_policy")->as_string(), "race");
  const sim::Json* stats = report.find("stats");
  ASSERT_NE(stats, nullptr);
  for (const char* key : {"worst_source", "best_source", "best_mean"}) {
    EXPECT_NE(stats->find(key), nullptr) << key;
  }
  EXPECT_TRUE(sim::Json::parse(report.dump(2)).has_value());
}

TEST(CampaignRace, SingleCandidateRaceIsWellDefined) {
  // max_candidates == 1 is spec-reachable; the stratified stride must not
  // divide by zero. The single candidate is the min-degree node, and worst
  // == best by construction.
  const auto spec = parse(R"({"configs": [
      {"graph": "star", "n": 32, "source": "race", "trials": 8,
       "screen_trials": 2, "max_candidates": 1}
    ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  const auto results = sim::run_campaign(spec.configs, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GE(results[0].source, 1u);  // a leaf, never the hub
  EXPECT_EQ(results[0].source, results[0].best_source);
  EXPECT_EQ(results[0].summary.mean(), results[0].best_mean);
}

TEST(CampaignRace, RejectsBadSourceValues) {
  // "source" must be a non-negative integer node id or "race"/"fixed";
  // race tuning keys must be positive where zero is meaningless.
  for (const char* bad :
       {R"({"configs": [{"graph": "star", "n": 64, "source": "worst"}]})",
        R"({"configs": [{"graph": "star", "n": 64, "source": -2}]})",
        R"({"configs": [{"graph": "star", "n": 64, "source": 1.5}]})",
        R"({"configs": [{"graph": "star", "n": 64, "source": true}]})",
        R"({"configs": [{"graph": "star", "n": 64, "source": "race", "screen_trials": 0}]})",
        R"({"configs": [{"graph": "star", "n": 64, "source": "race", "finalists": 0}]})"}) {
    EXPECT_FALSE(parse(bad).error.empty()) << bad;
  }
  // The happy strings parse.
  EXPECT_TRUE(parse(R"({"configs": [{"graph": "star", "n": 64, "source": "fixed"}]})")
                  .error.empty());
  EXPECT_TRUE(parse(R"({"defaults": {"source": "race"},
                        "configs": [{"graph": "star", "n": 64}]})").error.empty());
}

// --- Report schema -----------------------------------------------------------

TEST(CampaignReport, EmitsEstablishedSchema) {
  auto configs = mixed_configs(16);
  configs.resize(1);
  const auto results = sim::run_campaign(configs, {});
  const sim::Json report = sim::campaign_report(results[0], "unit");
  EXPECT_EQ(report.find("experiment")->as_string(), "unit/" + results[0].id);
  for (const char* key : {"params", "rows", "stats", "notes"}) {
    EXPECT_NE(report.find(key), nullptr) << key;
  }
  const sim::Json* rows = report.find("rows");
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->size(), 1u);
  for (const char* key : {"graph", "n", "trials", "mean", "stddev", "stderr", "min", "max",
                          "median", "p95", "hp_time", "mean_ci_lower", "mean_ci_upper"}) {
    EXPECT_NE(rows->elements()[0].find(key), nullptr) << key;
  }
  // The report must round-trip through the JSON layer (CI consumers parse it).
  EXPECT_TRUE(sim::Json::parse(report.dump(2)).has_value());
}

// --- File-backed graphs (packed mmap store) ----------------------------------

namespace {

/// Packs the graph `family_spec` describes and returns the store path.
std::string pack_spec_graph(const sim::GraphSpec& family_spec, const std::string& tag) {
  const std::string store =
      (std::filesystem::temp_directory_path() / ("rumor_test_campaign_" + tag + ".rgs")).string();
  graph::write_graph_store(sim::build_graph(family_spec, /*fallback_seed=*/1), store);
  return store;
}

}  // namespace

TEST(CampaignFileGraph, FileCellByteIdenticalToInMemoryAcrossThreads) {
  // The tentpole acceptance check: a graph: {kind:"file"} cell must produce
  // a report byte-identical to the same cell built in memory, at every
  // thread count.
  sim::GraphSpec family;
  family.family = "random_regular";
  family.n = 80;
  family.degree = 4;
  family.graph_seed = 9;
  const std::string store = pack_spec_graph(family, "cell");

  auto make_cfg = [&](bool file) {
    sim::CampaignConfig cfg;
    cfg.id = "cell";
    if (file) {
      cfg.graph.family = "file";
      cfg.graph.path = store;
    } else {
      cfg.graph = family;
    }
    cfg.trials = 40;
    cfg.seed = 5;
    return cfg;
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    sim::CampaignOptions options;
    options.threads = threads;
    options.block_size = 8;
    const auto mem = sim::run_campaign({make_cfg(false)}, options);
    const auto file = sim::run_campaign({make_cfg(true)}, options);
    EXPECT_EQ(sim::campaign_report(mem[0], "camp").dump(2),
              sim::campaign_report(file[0], "camp").dump(2))
        << "threads=" << threads;
  }
  std::remove(store.c_str());
}

TEST(CampaignFileGraph, SharedStoreMaterializesOnceAcrossConfigs) {
  // N configs naming one store share a single mapping: the obs graph_builds
  // counter must record 1 materialization, not N.
  sim::GraphSpec family;
  family.family = "hypercube";
  family.n = 64;
  const std::string store = pack_spec_graph(family, "shared");

  std::vector<sim::CampaignConfig> configs;
  int i = 0;
  for (const sim::EngineKind engine :
       {sim::EngineKind::kSync, sim::EngineKind::kAsync, sim::EngineKind::kSync}) {
    sim::CampaignConfig cfg;
    cfg.id = "shared" + std::to_string(i);
    cfg.graph.family = "file";
    cfg.graph.path = store;
    cfg.engine = engine;
    cfg.mode = i == 2 ? core::Mode::kPush : core::Mode::kPushPull;
    cfg.trials = 12;
    cfg.seed = 40 + static_cast<std::uint64_t>(i);
    ++i;
    configs.push_back(std::move(cfg));
  }

  obs::Telemetry::Options telemetry_options;
  obs::Telemetry tel(telemetry_options);
  sim::CampaignOptions options;
  options.threads = 2;
  options.block_size = 4;
  options.telemetry = &tel;
  const auto results = sim::run_campaign(configs, options);
  for (const auto& r : results) EXPECT_EQ(r.n, 64u);
  const auto snapshot = tel.snapshot();
  EXPECT_EQ(snapshot.totals.graph_builds, 1u);
  EXPECT_EQ(snapshot.totals.graph_frees, 1u);  // the mapping is freed with its last config
  std::remove(store.c_str());
}

// --- The graph table: one build per distinct graph ----------------------------

namespace {

sim::CampaignConfig table_cell(const std::string& id, const sim::GraphSpec& graph,
                               sim::EngineKind engine, std::uint64_t seed,
                               std::uint64_t trials = 12) {
  sim::CampaignConfig cfg;
  cfg.id = id;
  cfg.graph = graph;
  cfg.engine = engine;
  cfg.lanes = 4;
  cfg.trials = trials;
  cfg.seed = seed;
  return cfg;
}

sim::GraphSpec table_spec(const std::string& family, std::uint64_t n,
                          std::uint64_t graph_seed = 0, std::uint32_t degree = 0) {
  sim::GraphSpec spec;
  spec.family = family;
  spec.n = n;
  spec.graph_seed = graph_seed;
  spec.degree = degree;
  return spec;
}

/// The (graph_builds, graph_frees) totals of one run_campaign_resumable
/// call. Block size 4; `options` supplies threads, shard and stop budget.
std::pair<std::uint64_t, std::uint64_t> table_counts(
    const std::vector<sim::CampaignConfig>& configs, sim::CampaignOptions options,
    const sim::Json* resume = nullptr, sim::Json* snapshot = nullptr) {
  obs::Telemetry tel(obs::Telemetry::Options{});
  options.block_size = 4;
  options.telemetry = &tel;
  auto outcome = sim::run_campaign_resumable(configs, options, "table", resume);
  if (snapshot != nullptr) *snapshot = std::move(outcome.snapshot);
  const auto totals = tel.snapshot().totals;
  return {totals.graph_builds, totals.graph_frees};
}

void expect_distinct_builds(const std::vector<sim::CampaignConfig>& configs,
                            std::uint64_t distinct) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    sim::CampaignOptions options;
    options.threads = threads;
    const auto [builds, frees] = table_counts(configs, options);
    EXPECT_EQ(builds, distinct) << "threads=" << threads;
    EXPECT_EQ(frees, distinct) << "threads=" << threads;
  }
}

}  // namespace

TEST(CampaignGraphTable, EnginesOverOneSpecBuildOneGraph) {
  const sim::GraphSpec hypercube = table_spec("hypercube", 64);
  expect_distinct_builds({table_cell("sync", hypercube, sim::EngineKind::kSync, 1),
                          table_cell("async", hypercube, sim::EngineKind::kAsync, 1),
                          table_cell("batch", hypercube, sim::EngineKind::kBatchSync, 1)},
                         1);
}

TEST(CampaignGraphTable, GraphSeedsSplitAndShareEntries) {
  // Two graph seeds are two graphs; one graph seed under two config seeds
  // is one graph.
  expect_distinct_builds(
      {table_cell("a", table_spec("random_regular", 64, 5), sim::EngineKind::kSync, 1),
       table_cell("b", table_spec("random_regular", 64, 6), sim::EngineKind::kSync, 1),
       table_cell("c", table_spec("random_regular", 64, 6), sim::EngineKind::kAsync, 2)},
      2);
}

TEST(CampaignGraphTable, ZeroGraphSeedFollowsTheConfigSeed) {
  // graph_seed 0 derives the graph from the config seed, as build_graph
  // does, so two config seeds build two graphs.
  const sim::GraphSpec derived = table_spec("random_regular", 64);
  expect_distinct_builds({table_cell("a", derived, sim::EngineKind::kSync, 1),
                          table_cell("b", derived, sim::EngineKind::kSync, 2)},
                         2);
}

TEST(CampaignGraphTable, DegreesAreDistinctGraphs) {
  expect_distinct_builds(
      {table_cell("d4", table_spec("random_regular", 64, 3, 4), sim::EngineKind::kSync, 1),
       table_cell("d6", table_spec("random_regular", 64, 3, 6), sim::EngineKind::kSync, 1)},
      2);
}

TEST(CampaignGraphTable, EntriesKeyBySpecAsBuildGraphReadsIt) {
  // A seedless family ignores the config seed, and an absent degree is its
  // family's default: hypercube(64) under seeds 1 and 2 is one graph, and
  // random_regular(64) at graph seed 9 with degree 0 and 6 is another.
  expect_distinct_builds(
      {table_cell("hc1", table_spec("hypercube", 64), sim::EngineKind::kSync, 1),
       table_cell("hc2", table_spec("hypercube", 64), sim::EngineKind::kSync, 2),
       table_cell("rr", table_spec("random_regular", 64, 9), sim::EngineKind::kSync, 1),
       table_cell("rr6", table_spec("random_regular", 64, 9, 6), sim::EngineKind::kSync, 1)},
      2);
}

TEST(CampaignGraphTable, ResolvedDefaultsShareEntries) {
  // Each pair spells one graph two ways: a default written out, an odd
  // watts_strogatz k rounded up, or a field the family does not read.
  auto with = [](sim::GraphSpec spec, auto&& edit) {
    edit(spec);
    return spec;
  };
  const sim::GraphSpec er = table_spec("erdos_renyi", 64, 4);
  const sim::GraphSpec ws = table_spec("watts_strogatz", 64, 4);
  const sim::GraphSpec pa = table_spec("preferential_attachment", 64, 4);
  const sim::GraphSpec cl = table_spec("chung_lu", 256, 4);
  const sim::GraphSpec cycle = table_spec("cycle", 48, 4);
  expect_distinct_builds(
      {table_cell("er", er, sim::EngineKind::kSync, 1),
       table_cell("er_p", with(er, [](auto& g) { g.p = 3.0 * std::log(64.0) / 64.0; }),
                  sim::EngineKind::kSync, 1),
       table_cell("ws", ws, sim::EngineKind::kSync, 1),
       table_cell("ws_k3", with(ws, [](auto& g) { g.degree = 3; g.p = 0.1; }),
                  sim::EngineKind::kSync, 1),
       table_cell("pa", pa, sim::EngineKind::kSync, 1),
       table_cell("pa_3", with(pa, [](auto& g) { g.degree = 3; }), sim::EngineKind::kSync, 1),
       table_cell("cl", cl, sim::EngineKind::kSync, 1),
       table_cell("cl_deg", with(cl, [](auto& g) { g.degree = 5; g.p = 0.5; }),
                  sim::EngineKind::kSync, 1),
       table_cell("cycle", cycle, sim::EngineKind::kSync, 1),
       table_cell("cycle_fields", with(cycle, [](auto& g) { g.graph_seed = 7; g.beta = 3.0; }),
                  sim::EngineKind::kSync, 2)},
      5);
}

TEST(CampaignGraphTable, ShardsAndResumesBuildEachGraphOnce) {
  // Three cells over two graphs, 32 blocks each, so both shards own blocks
  // of every cell and a run stopped after one block leaves every cell open.
  const sim::GraphSpec hypercube = table_spec("hypercube", 64);
  const sim::GraphSpec cycle = table_spec("cycle", 48);
  const std::vector<sim::CampaignConfig> configs = {
      table_cell("hc_sync", hypercube, sim::EngineKind::kSync, 1, 128),
      table_cell("hc_async", hypercube, sim::EngineKind::kAsync, 1, 128),
      table_cell("cycle_sync", cycle, sim::EngineKind::kSync, 3, 128)};
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (std::uint32_t shard = 1; shard <= 2; ++shard) {
      sim::CampaignOptions options;
      options.threads = threads;
      options.shard_index = shard;
      options.shard_count = 2;
      const auto [builds, frees] = table_counts(configs, options);
      EXPECT_EQ(builds, 2u) << "threads=" << threads << " shard=" << shard;
      EXPECT_EQ(frees, 2u) << "threads=" << threads << " shard=" << shard;
    }

    sim::CampaignOptions stop;
    stop.threads = threads;
    stop.stop_after_blocks = 1;
    sim::Json snapshot;
    const auto [stopped_builds, stopped_frees] = table_counts(configs, stop, nullptr, &snapshot);
    EXPECT_GE(stopped_builds, 1u) << "threads=" << threads;
    EXPECT_LE(stopped_builds, 2u) << "threads=" << threads;
    EXPECT_EQ(stopped_frees, 0u) << "threads=" << threads;  // no cell finished

    sim::CampaignOptions resume;
    resume.threads = threads;
    const auto [builds, frees] = table_counts(configs, resume, &snapshot);
    EXPECT_EQ(builds, 2u) << "threads=" << threads;
    EXPECT_EQ(frees, 2u) << "threads=" << threads;
  }
}

TEST(CampaignSpecParsing, GraphObjectFormParsesFileAndFamilyKinds) {
  const auto spec = parse(R"({"configs": [
    {"graph": {"kind": "file", "path": "/data/web.rgs"}, "engine": ["sync", "async"]},
    {"graph": {"kind": "chung_lu", "beta": 2.1, "average_degree": 6}, "n": 500}
  ]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 3u);
  EXPECT_EQ(spec.configs[0].graph.family, "file");
  EXPECT_EQ(spec.configs[0].graph.path, "/data/web.rgs");
  EXPECT_EQ(spec.configs[0].id, "file-web_sync_push-pull");  // id from the file stem
  EXPECT_EQ(spec.configs[1].id, "file-web_async_push-pull");
  EXPECT_EQ(spec.configs[2].graph.family, "chung_lu");
  EXPECT_DOUBLE_EQ(spec.configs[2].graph.beta, 2.1);
  EXPECT_DOUBLE_EQ(spec.configs[2].graph.average_degree, 6.0);
  EXPECT_EQ(spec.configs[2].graph.n, 500u);
}

TEST(CampaignSpecParsing, RejectsBadGraphObjects) {
  const struct {
    const char* text;
    const char* expect;
  } cases[] = {
      {R"({"configs": [{"graph": {"path": "x.rgs"}, "n": 8}]})", "kind"},
      {R"({"configs": [{"graph": {"kind": "file"}}]})", "path"},
      {R"({"configs": [{"graph": {"kind": "file", "path": "x.rgs"}, "n": 8}]})", "'n'"},
      {R"({"configs": [{"graph": {"kind": "file", "path": "x.rgs", "degree": 3}}]})",
       "not allowed with kind 'file'"},
      {R"({"configs": [{"graph": {"kind": "star", "path": "x.rgs"}, "n": 8}]})",
       "only allowed with kind 'file'"},
      {R"({"configs": [{"graph": {"kind": "star", "bogus": 1}, "n": 8}]})", "bogus"},
      {R"({"configs": [{"graph": 7, "n": 8}]})", "must be a family name"},
      // A flat generator key is checked even where the graph object wins.
      {R"({"configs": [{"graph": {"kind": "erdos_renyi", "p": 0.1}, "n": 8, "p": 2}]})", "'p'"},
  };
  for (const auto& c : cases) {
    const auto spec = parse(c.text);
    ASSERT_FALSE(spec.error.empty()) << c.text;
    EXPECT_NE(spec.error.find(c.expect), std::string::npos) << spec.error;
  }
}
