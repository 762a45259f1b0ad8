// Acceptance tests for the trial-lanes engine (core/trial_lanes.hpp): up to
// eight sync or global-clock async trials per AVX-512 vector must be
// bit-identical, trial by trial, to scalar run_trial on the same engine —
// same value, tick count, completed flag and final engine state — across
// graph families, modes, sources, stream families, block lengths (lane
// refill and tails), caps, and the campaign's own blocks. The vector RNG
// primitives are pinned against rng.hpp output for output, including the
// rare Lemire rejection path. On a CPU without AVX-512F/DQ/VL/BW the suite
// skips with the reason.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lane_simd.hpp"
#include "core/spread_probe.hpp"
#include "core/trial.hpp"
#include "core/trial_lanes.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

using namespace rumor;
using core::EngineKind;
using core::Mode;
using graph::Graph;
using graph::NodeId;

namespace {

constexpr std::size_t kW = core::kLaneWidth;

class TrialLanes : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!core::trial_lanes_supported()) {
      GTEST_SKIP() << "CPU lacks AVX-512F/DQ/VL/BW: trial lanes never run here";
    }
  }
};

// --- Vector primitives vs rng.hpp -------------------------------------------
// (x86-64 GCC/Clang builds only: elsewhere there are no vector primitives.)

#ifdef RUMOR_TRIAL_LANES

enum class Draw { kNext, kOpenLow, kBelow };

using States = std::uint64_t[4][kW];

void load(const std::array<rng::Engine, kW>& engines, States& st) {
  for (std::size_t l = 0; l < kW; ++l) {
    for (std::size_t i = 0; i < 4; ++i) st[i][l] = engines[l].state()[i];
  }
}

std::array<std::uint64_t, 4> lane_state(const States& st, std::size_t l) {
  return {st[0][l], st[1][l], st[2][l], st[3][l]};
}

/// `steps` vector draws of `draw` on all eight lanes; output s of lane l
/// lands at out[s * kW + l] (doubles as their bit patterns).
RUMOR_LANES void vector_draws(States& states, Draw draw, std::uint64_t bound, std::size_t steps,
                              std::uint64_t* out) {
  core::lanes::Xoshiro8 st = core::lanes::load_states(states);
  const __m512i b = _mm512_set1_epi64(static_cast<long long>(bound));
  for (std::size_t s = 0; s < steps; ++s) {
    const __m512i x = core::lanes::next(st);
    __m512i y = x;
    if (draw == Draw::kOpenLow) y = _mm512_castpd_si512(core::lanes::open_low_uniform(x));
    if (draw == Draw::kBelow) y = core::lanes::bounded(st, x, b, 0xFF);
    _mm512_storeu_si512(out + s * kW, y);
  }
  core::lanes::store_states(st, states);
}

void expect_draws_match(Draw draw, std::uint64_t bound, std::size_t steps) {
  std::array<rng::Engine, kW> engines;
  for (std::size_t l = 0; l < kW; ++l) engines[l] = rng::derive_stream(2024 + bound, l);
  alignas(64) States st;
  load(engines, st);
  std::vector<std::uint64_t> out(steps * kW);
  vector_draws(st, draw, bound, steps, out.data());
  for (std::size_t l = 0; l < kW; ++l) {
    rng::Engine& eng = engines[l];
    for (std::size_t s = 0; s < steps; ++s) {
      std::uint64_t want = 0;
      switch (draw) {
        case Draw::kNext: want = eng.next(); break;
        case Draw::kOpenLow:
          want = std::bit_cast<std::uint64_t>(rng::uniform01_open_low(eng));
          break;
        case Draw::kBelow: want = rng::uniform_below(eng, bound); break;
      }
      ASSERT_EQ(out[s * kW + l], want) << "lane " << l << " step " << s << " bound " << bound;
    }
    EXPECT_EQ(lane_state(st, l), eng.state()) << "lane " << l << " bound " << bound;
  }
}

TEST_F(TrialLanes, VectorDrawsMatchScalarOutputForOutput) {
  constexpr std::size_t kSteps = 100000;
  expect_draws_match(Draw::kNext, 1, kSteps);
  expect_draws_match(Draw::kOpenLow, 1, kSteps);
  for (const std::uint64_t bound :
       {1ULL, 2ULL, 3ULL, 6ULL, 14ULL, 1023ULL, 4095ULL, 16384ULL, (1ULL << 31) + 11,
        (1ULL << 32) - 1}) {
    expect_draws_match(Draw::kBelow, bound, kSteps);
  }
}

TEST_F(TrialLanes, RejectedDrawRedrawsOnItsLaneAlone) {
  // State {0, 1, 2, 0} outputs 0 first: for bound 3 the low word 0 is below
  // the threshold (2^64 - 3) % 3 == 1, so scalar uniform_below rejects it
  // and draws again. Only that lane may advance past its first draw.
  constexpr std::size_t kCrafted = 3;
  std::array<rng::Engine, kW> engines;
  for (std::size_t l = 0; l < kW; ++l) engines[l] = rng::derive_stream(5, l);
  engines[kCrafted] = rng::Engine(std::array<std::uint64_t, 4>{0, 1, 2, 0});
  ASSERT_EQ(rng::Engine(engines[kCrafted]).next(), 0u);
  alignas(64) States st;
  load(engines, st);
  std::vector<std::uint64_t> out(kW);
  vector_draws(st, Draw::kBelow, 3, 1, out.data());
  for (std::size_t l = 0; l < kW; ++l) {
    rng::Engine eng = engines[l];
    EXPECT_EQ(out[l], rng::uniform_below(eng, 3)) << "lane " << l;
    EXPECT_EQ(lane_state(st, l), eng.state()) << "lane " << l;
    rng::Engine once = engines[l];
    (void)once.next();
    if (l == kCrafted) {
      EXPECT_NE(lane_state(st, l), once.state()) << "the rejected lane must redraw";
    } else {
      EXPECT_EQ(lane_state(st, l), once.state()) << "lane " << l << " advanced past one draw";
    }
  }
}

#endif  // RUMOR_TRIAL_LANES

// --- Trials vs run_trial -----------------------------------------------------

/// Runs `trials` trials on lanes and one by one through run_trial, on
/// engines derive_stream(seed, t), and demands identical outcomes and final
/// engine states.
void expect_lanes_match(EngineKind kind, const Graph& g, NodeId source, std::uint64_t seed,
                        std::size_t trials, const core::TrialOptions& options,
                        const std::string& what) {
  std::vector<rng::Engine> engines;
  for (std::size_t t = 0; t < trials; ++t) engines.push_back(rng::derive_stream(seed, t));
  const auto lanes = core::run_trial_lanes(kind, g, source, engines, options);
  ASSERT_EQ(lanes.size(), trials) << what;
  for (std::size_t t = 0; t < trials; ++t) {
    rng::Engine eng = rng::derive_stream(seed, t);
    const auto scalar = core::run_trial(kind, g, source, eng, options);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[t].value),
              std::bit_cast<std::uint64_t>(scalar.value))
        << what << " trial " << t << ": " << lanes[t].value << " vs " << scalar.value;
    EXPECT_EQ(lanes[t].ticks, scalar.ticks) << what << " trial " << t;
    EXPECT_EQ(lanes[t].completed, scalar.completed) << what << " trial " << t;
    EXPECT_EQ(engines[t].state(), eng.state()) << what << " trial " << t;
  }
}

std::vector<Graph> lane_families() {
  auto gen = rng::derive_stream(77, 0);
  std::vector<Graph> graphs;
  graphs.push_back(graph::hypercube(6));
  graphs.push_back(graph::random_regular(200, 6, gen));
  graphs.push_back(graph::star(100));
  graphs.push_back(graph::double_star(64));
  graphs.push_back(graph::cycle(60));
  graphs.push_back(graph::wheel(50));
  graphs.push_back(graph::torus(8));
  graphs.push_back(graph::complete_binary_tree(63));
  graphs.push_back(graph::largest_component(graph::erdos_renyi(120, 0.06, gen)));
  return graphs;
}

constexpr std::array<Mode, 3> kModes = {Mode::kPush, Mode::kPull, Mode::kPushPull};
constexpr std::array<EngineKind, 2> kEngines = {EngineKind::kSync, EngineKind::kAsync};

TEST_F(TrialLanes, EveryFamilyModeAndBlockLengthMatchesRunTrial) {
  std::uint64_t seed = 300;
  for (const Graph& g : lane_families()) {
    for (const EngineKind kind : kEngines) {
      for (const Mode mode : kModes) {
        core::TrialOptions options;
        options.mode = mode;
        // 1: one lane; 7, 8: a partial and a full vector; 9, 17: refill
        // with a one-trial tail; 64: eight trials per lane.
        for (const std::size_t trials : {1u, 7u, 8u, 9u, 17u, 64u}) {
          const NodeId source = trials % 2 == 0 ? 0 : g.num_nodes() / 3;
          expect_lanes_match(kind, g, source, ++seed, trials, options,
                             g.name() + " " + core::engine_name(kind) + " " +
                                 core::mode_name(mode) + " x" + std::to_string(trials));
        }
      }
    }
  }
}

TEST_F(TrialLanes, MappedStoreWithCompactOffsetsMatchesRunTrial) {
  auto gen = rng::derive_stream(78, 0);
  const Graph built = graph::largest_component(graph::erdos_renyi(150, 0.05, gen));
  const std::string path =
      (std::filesystem::temp_directory_path() / "rumor_test_trial_lanes.rgs").string();
  graph::write_graph_store(built, path);
  {
    const Graph mapped = graph::open_graph_store(path);
    ASSERT_TRUE(mapped.is_mapped());
    for (const EngineKind kind : kEngines) {
      for (const Mode mode : kModes) {
        core::TrialOptions options;
        options.mode = mode;
        expect_lanes_match(kind, mapped, 3, 41, 17, options,
                           std::string("mapped ") + core::engine_name(kind));
      }
    }
  }
  std::filesystem::remove(path);
}

TEST_F(TrialLanes, RaceStreamFamiliesAndExtraSourcesMatchRunTrial) {
  // The campaign's race runs candidate u's screen trials on seed +
  // 0x9e3779b9 * u and its refine trials on seed + 1 + 0x9e3779b9 * u.
  constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;
  const Graph g = graph::double_star(48);
  core::TrialOptions options;
  for (const EngineKind kind : kEngines) {
    for (const NodeId u : {0u, 5u, 47u}) {
      expect_lanes_match(kind, g, u, 7 + kSourceStride * u, 9, options, "screen");
      expect_lanes_match(kind, g, u, 8 + kSourceStride * u, 9, options, "refine");
    }
    core::TrialOptions multi;
    multi.extra_sources = {5, 9, 5, 0};
    expect_lanes_match(kind, g, 0, 11, 12, multi, "extra sources");
    // Every node a source: complete at tick 0, no draws.
    const Graph tiny = graph::path(3);
    core::TrialOptions all;
    all.extra_sources = {1, 2};
    expect_lanes_match(kind, tiny, 0, 12, 10, all, "all sources");
  }
}

/// Two components plus an isolated node: no trial can complete.
Graph disconnected() {
  graph::GraphBuilder b(21);
  for (NodeId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  for (NodeId v = 10; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  b.add_edge(19, 10);
  return std::move(b).build("disconnected");
}

TEST_F(TrialLanes, CappedTrialsMatchRunTrial) {
  const Graph g = disconnected();
  for (const Mode mode : kModes) {
    core::TrialOptions sync_options;
    sync_options.mode = mode;
    sync_options.max_ticks = 40;
    expect_lanes_match(EngineKind::kSync, g, 2, 51, 11, sync_options, "capped sync");
    core::TrialOptions async_options;
    async_options.mode = mode;
    async_options.max_ticks = 3000;
    expect_lanes_match(EngineKind::kAsync, g, 2, 52, 11, async_options, "capped async");
    // A cap that some lanes reach and others beat.
    core::TrialOptions tight;
    tight.mode = mode;
    tight.max_ticks = 1200;
    expect_lanes_match(EngineKind::kAsync, graph::cycle(24), 0, 53, 20, tight, "tight cap");
  }
}

TEST_F(TrialLanes, CampaignCapErrorTextMatchesScalar) {
  auto g = std::make_shared<const Graph>(disconnected());
  for (const EngineKind kind : kEngines) {
    sim::CampaignConfig cfg;
    cfg.prebuilt = g;
    cfg.engine = kind;
    cfg.trials = core::kMinLaneTrials;
    cfg.seed = 3;
    auto error_text = [&](std::uint64_t block_size) {
      sim::CampaignOptions options;
      options.threads = 1;
      options.block_size = block_size;
      try {
        (void)sim::run_campaign({cfg}, options);
      } catch (const std::runtime_error& e) {
        return std::string(e.what());
      }
      return std::string("no error");
    };
    // Full blocks run on lanes; blocks of 1 take the scalar loop.
    const std::string lanes = error_text(core::kMinLaneTrials);
    EXPECT_EQ(lanes, error_text(1));
    EXPECT_NE(lanes.find("hit its tick cap"), std::string::npos) << lanes;
  }
}

TEST_F(TrialLanes, RegistryCountsLaneTrialsAndKeepsTickTotals) {
  // Two eligible cells and two that are not (per-node clocks, loss): the
  // registry counts exactly the eligible cells' trials as lane trials, and
  // its round and event totals equal a run whose blocks all take the
  // scalar loop (blocks of 1), at any thread count.
  const auto hypercube = std::make_shared<const Graph>(graph::hypercube(5));
  const auto star = std::make_shared<const Graph>(graph::star(64));
  std::vector<sim::CampaignConfig> configs(4);
  configs[0].prebuilt = hypercube;
  configs[1].prebuilt = star;
  configs[1].engine = EngineKind::kAsync;
  configs[2].prebuilt = hypercube;
  configs[2].engine = EngineKind::kAsync;
  configs[2].view = core::AsyncView::kPerNodeClocks;
  configs[3].prebuilt = star;
  configs[3].message_loss = 0.1;
  std::uint64_t seed = 60;
  for (auto& cfg : configs) {
    cfg.trials = 2 * core::kMinLaneTrials;
    cfg.seed = ++seed;
  }
  auto snapshot = [&](std::uint64_t block_size, unsigned threads) {
    obs::Telemetry tel(obs::Telemetry::Options{});
    sim::CampaignOptions options;
    options.threads = threads;
    options.block_size = block_size;
    options.telemetry = &tel;
    (void)sim::run_campaign(configs, options);
    return tel.snapshot();
  };
  const auto scalar = snapshot(1, 2);
  EXPECT_EQ(scalar.totals.lane_trials, 0u);
  for (const unsigned threads : {1u, 3u}) {
    const auto lanes = snapshot(core::kMinLaneTrials, threads);
    EXPECT_EQ(lanes.totals.lane_trials, 2 * configs[0].trials) << threads;
    EXPECT_EQ(lanes.totals.sync_rounds, scalar.totals.sync_rounds) << threads;
    EXPECT_EQ(lanes.totals.async_events, scalar.totals.async_events) << threads;
    obs::WorkerMetrics remerged;
    for (const auto& w : lanes.workers) remerged.merge(w);
    EXPECT_EQ(remerged.lane_trials, lanes.totals.lane_trials) << threads;
  }
}

TEST_F(TrialLanes, SmokeCampaignCellsMatchRunTrialLoop) {
  std::ifstream file(std::string(RUMOR_SOURCE_DIR) + "/bench/ci_smoke_campaign.json");
  ASSERT_TRUE(file.good());
  std::ostringstream text;
  text << file.rdbuf();
  auto spec = sim::parse_campaign_spec(*sim::Json::parse(text.str()));
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  for (auto& cfg : spec.configs) cfg.reservoir_capacity = cfg.trials + 64;
  sim::CampaignOptions options;
  options.threads = 2;
  const auto results = sim::run_campaign(spec.configs, options);

  constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;
  std::size_t checked = 0;
  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    const sim::CampaignConfig& cfg = spec.configs[c];
    core::TrialOptions trial_options;
    trial_options.mode = cfg.mode;
    trial_options.message_loss = cfg.message_loss;
    core::TrialExtras extras;
    extras.view = cfg.view;
    if (!cfg.dynamics.is_static() || cfg.curves.enabled ||
        !core::lanes_eligible(cfg.engine, trial_options, extras)) {
      continue;
    }
    const Graph g = sim::build_graph(cfg.graph, cfg.seed);
    const bool race = cfg.source_policy == sim::SourcePolicy::kRace;
    const NodeId source = race ? results[c].source : cfg.source;
    const std::uint64_t seed = race ? cfg.seed + 1 + kSourceStride * source : cfg.seed;
    // The campaign's values, recovered in trial order from a full reservoir.
    const auto entries = results[c].summary.reservoir().entries();
    ASSERT_FALSE(entries.empty()) << results[c].id;
    std::vector<rng::Engine> engines;
    for (const auto& entry : entries) engines.push_back(rng::derive_stream(seed, entry.first));
    const auto lanes = core::run_trial_lanes(cfg.engine, g, source, engines, trial_options,
                                             extras);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      rng::Engine eng = rng::derive_stream(seed, entries[i].first);
      const auto scalar = core::run_trial(cfg.engine, g, source, eng, trial_options, extras);
      EXPECT_EQ(entries[i].second, scalar.value) << results[c].id << " trial " << entries[i].first;
      EXPECT_EQ(lanes[i].value, scalar.value) << results[c].id << " trial " << entries[i].first;
    }
    ++checked;
  }
  // Eight star cells, the static race, the plain hypercube cell.
  EXPECT_GE(checked, 9u);
}

TEST(TrialLanesEligibility, OnlySyncAndGlobalClockAsyncWithoutExtrasRunOnLanes) {
  const bool cpu = core::trial_lanes_supported();
  core::TrialOptions plain;
  core::TrialExtras global;
  EXPECT_EQ(core::lanes_eligible(EngineKind::kSync, plain, global), cpu);
  EXPECT_EQ(core::lanes_eligible(EngineKind::kAsync, plain, global), cpu);
  for (const EngineKind other : {EngineKind::kAux, EngineKind::kBatchSync}) {
    EXPECT_FALSE(core::lanes_eligible(other, plain, global)) << core::engine_name(other);
  }
  core::TrialExtras per_node;
  per_node.view = core::AsyncView::kPerNodeClocks;
  EXPECT_FALSE(core::lanes_eligible(EngineKind::kAsync, plain, per_node));
  core::TrialExtras per_edge;
  per_edge.view = core::AsyncView::kPerEdgeClocks;
  EXPECT_FALSE(core::lanes_eligible(EngineKind::kAsync, plain, per_edge));
  core::TrialOptions lossy;
  lossy.message_loss = 0.1;
  EXPECT_FALSE(core::lanes_eligible(EngineKind::kSync, lossy, global));
  core::TrialOptions history;
  history.record_history = true;
  EXPECT_FALSE(core::lanes_eligible(EngineKind::kSync, history, global));
  core::SpreadProbe probe;
  core::TrialOptions probed;
  probed.probe = &probe;
  EXPECT_FALSE(core::lanes_eligible(EngineKind::kAsync, probed, global));

  const Graph g = graph::cycle(8);
  std::vector<rng::Engine> engines(4);
  EXPECT_THROW((void)core::run_trial_lanes(EngineKind::kAux, g, 0, engines),
               std::invalid_argument);
  EXPECT_THROW((void)core::run_trial_lanes(EngineKind::kSync, g, 0, engines, lossy),
               std::invalid_argument);
}

}  // namespace
