// Batch-lane engine tests: the lane-parallel synchronous engine of
// core/batch_sync.hpp, the unified run_trial dispatch of core/trial.hpp, and
// the campaign scheduler's lane-batch scheduling. The batch engine's
// contract is *distributional* (docs/ENGINES.md): every lane is an exact
// execution of the Section 2 protocol, but the shared engine stream
// interleaves across lanes, so equality with run_sync is checked by the
// two-sample KS gate (dist::ks_two_sample_test), never by bit comparison.
// The pre-existing kinds, by contrast, forward through run_trial
// bit-identically — options, results, and randomness consumption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_sync.hpp"
#include "core/rumor.hpp"
#include "core/trial.hpp"
#include "dist/distributions.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "support/campaign_fixtures.hpp"

using namespace rumor;

namespace {

/// `trials` spreading times from the batch engine, scheduled exactly like
/// the campaign does it: the block starting at trial b runs lanes
/// [b, min(b+64, trials)) on derive_stream(seed, b).
std::vector<double> batch_samples(const graph::Graph& g, core::Mode mode, double loss,
                                  std::uint64_t seed, std::uint64_t trials) {
  std::vector<double> out;
  out.reserve(trials);
  core::BatchSyncOptions options;
  options.mode = mode;
  options.message_loss = loss;
  for (std::uint64_t b = 0; b < trials; b += core::kMaxBatchLanes) {
    options.lanes =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(core::kMaxBatchLanes, trials - b));
    rng::Engine eng = rng::derive_stream(seed, b);
    const auto result = core::run_batch_sync(g, 0, eng, options);
    EXPECT_TRUE(result.completed);
    for (const std::uint64_t rounds : result.rounds) out.push_back(static_cast<double>(rounds));
  }
  return out;
}

/// The reference sample: `trials` independent run_sync executions on the
/// harness's per-trial streams.
std::vector<double> sync_samples(const graph::Graph& g, core::Mode mode, double loss,
                                 std::uint64_t seed, std::uint64_t trials) {
  std::vector<double> out;
  out.reserve(trials);
  core::SyncOptions options;
  options.mode = mode;
  options.message_loss = loss;
  for (std::uint64_t t = 0; t < trials; ++t) {
    rng::Engine eng = rng::derive_stream(seed, t);
    const auto result = core::run_sync(g, 0, eng, options);
    EXPECT_TRUE(result.completed);
    out.push_back(static_cast<double>(result.rounds));
  }
  return out;
}

}  // namespace

// --- Distributional equality with run_sync -----------------------------------

TEST(BatchSyncEquality, MatchesRunSyncAcrossFamiliesModesAndLoss) {
  // The acceptance sweep from the engine's contract: four graph families
  // (regular and irregular, so both scan specializations run) x all three
  // modes x loss off/on, each cell gated by the exact two-sample KS test.
  // 256-vs-256 keeps the exact lattice-path p-value (n*m << 4e6) and makes
  // a systematic per-round bias of even half a round visible.
  const auto families = {shared(graph::hypercube(7)), shared(graph::complete(64)),
                         shared(graph::star(129)), shared(graph::torus(8))};
  const std::uint64_t trials = 256;
  std::uint64_t cell = 0;
  for (const auto& g : families) {
    for (const core::Mode mode : {core::Mode::kPush, core::Mode::kPull, core::Mode::kPushPull}) {
      for (const double loss : {0.0, 0.3}) {
        SCOPED_TRACE(g->name() + " mode=" + std::to_string(static_cast<int>(mode)) +
                     " loss=" + std::to_string(loss));
        const auto batch = batch_samples(*g, mode, loss, 7100 + cell, trials);
        const auto sync = sync_samples(*g, mode, loss, 9100 + cell, trials);
        const auto test = dist::ks_two_sample_test(batch, sync);
        EXPECT_TRUE(test.exact);
        EXPECT_GE(test.p_value, 1e-3) << "D=" << test.statistic;
        ++cell;
      }
    }
  }
}

TEST(BatchSyncEquality, LaneWidthDoesNotShiftTheLaw) {
  // Narrow batches and full-width batches sample the same distribution:
  // width-4 batches vs width-64 batches over the same cell.
  const auto g = graph::hypercube(6);
  std::vector<double> narrow;
  core::BatchSyncOptions options;
  options.lanes = 4;
  for (std::uint64_t b = 0; b < 256; b += 4) {
    rng::Engine eng = rng::derive_stream(314, b);
    const auto result = core::run_batch_sync(g, 0, eng, options);
    ASSERT_TRUE(result.completed);
    for (const std::uint64_t rounds : result.rounds) narrow.push_back(static_cast<double>(rounds));
  }
  const auto wide = batch_samples(g, core::Mode::kPushPull, 0.0, 271, 256);
  EXPECT_TRUE(dist::ks_gate(narrow, wide));
}

// --- Lane semantics ----------------------------------------------------------

TEST(BatchSync, TwoNodeGraphInformsEveryLaneInOneRound) {
  const auto g = graph::complete(2);
  rng::Engine eng = rng::derive_stream(5, 0);
  const auto result = core::run_batch_sync(g, 0, eng, {});
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.lanes, core::kMaxBatchLanes);
  ASSERT_EQ(result.rounds.size(), core::kMaxBatchLanes);
  for (const std::uint64_t rounds : result.rounds) EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(result.total_rounds, std::uint64_t{core::kMaxBatchLanes});
}

TEST(BatchSync, ExtraSourcesSeedEveryLane) {
  // All nodes pre-informed: every lane completes at round 0 before any
  // contact is drawn.
  const auto g = graph::complete(8);
  core::BatchSyncOptions options;
  options.lanes = 17;
  for (graph::NodeId v = 1; v < 8; ++v) options.extra_sources.push_back(v);
  rng::Engine eng = rng::derive_stream(6, 0);
  const auto result = core::run_batch_sync(g, 0, eng, options);
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.rounds.size(), 17u);
  for (const std::uint64_t rounds : result.rounds) EXPECT_EQ(rounds, 0u);
  EXPECT_EQ(result.total_rounds, 0u);

  // A partial seeding strictly helps: complete graph with half the nodes
  // informed finishes, and no lane reports round 0.
  core::BatchSyncOptions half;
  half.extra_sources = {1, 2, 3};
  rng::Engine eng2 = rng::derive_stream(6, 1);
  const auto partial = core::run_batch_sync(g, 0, eng2, half);
  EXPECT_TRUE(partial.completed);
  for (const std::uint64_t rounds : partial.rounds) EXPECT_GE(rounds, 1u);
}

TEST(BatchSync, RoundCapMarksEveryLaneIncomplete) {
  // Two components: nodes 2 and 3 are unreachable, so every lane runs to
  // the cap and reports the cap value, mirroring run_sync's capped result.
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1);
  const auto g = std::move(builder).build("split");
  core::BatchSyncOptions options;
  options.max_ticks = 5;
  options.lanes = 9;
  rng::Engine eng = rng::derive_stream(7, 0);
  const auto result = core::run_batch_sync(g, 0, eng, options);
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.rounds.size(), 9u);
  for (const std::uint64_t rounds : result.rounds) EXPECT_EQ(rounds, 5u);
  EXPECT_EQ(result.total_rounds, 45u);
}

TEST(BatchSync, ConsumesTheCallersStreamAsPinned) {
  // Two batches back to back on one engine, on a regular and an irregular
  // graph, every mode, with and without loss. The FNV digest covers every
  // lane's rounds and the caller's engine state after each batch, so it
  // pins the draws and that the engine is handed back advanced. Recorded
  // with the engine held by reference inside the batch engine.
  auto gen = rng::derive_stream(77, 1);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::hypercube(6));
  graphs.push_back(graph::erdos_renyi(96, 0.07, gen));
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto add = [&digest](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (x >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ULL;
    }
  };
  std::uint64_t stream = 0;
  for (const auto& g : graphs) {
    for (core::Mode mode : {core::Mode::kPush, core::Mode::kPull, core::Mode::kPushPull}) {
      for (double loss : {0.0, 0.2}) {
        core::BatchSyncOptions options;
        options.mode = mode;
        options.message_loss = loss;
        options.lanes = 16;
        rng::Engine eng = rng::derive_stream(9003, stream++);
        for (int batch = 0; batch < 2; ++batch) {
          const auto result = core::run_batch_sync(g, 0, eng, options);
          for (const std::uint64_t rounds : result.rounds) add(rounds);
          for (const std::uint64_t word : eng.state()) add(word);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0x33728c2c8310c98bULL) << std::hex << digest;
}

TEST(BatchSync, RejectsBadLaneCountsAndUnsupportedTelemetry) {
  const auto g = graph::complete(4);
  rng::Engine eng = rng::derive_stream(8, 0);

  core::BatchSyncOptions zero;
  zero.lanes = 0;
  EXPECT_THROW((void)core::run_batch_sync(g, 0, eng, zero), std::invalid_argument);
  core::BatchSyncOptions wide;
  wide.lanes = core::kMaxBatchLanes + 1;
  EXPECT_THROW((void)core::run_batch_sync(g, 0, eng, wide), std::invalid_argument);

  // Telemetry the lane loop cannot honor is refused, never dropped.
  core::BatchSyncOptions history;
  history.record_history = true;
  EXPECT_THROW((void)core::run_batch_sync(g, 0, eng, history), std::runtime_error);
  core::SpreadProbe probe;
  core::BatchSyncOptions probed;
  probed.probe = &probe;
  EXPECT_THROW((void)core::run_batch_sync(g, 0, eng, probed), std::runtime_error);
}

// --- run_trial dispatch: bit-identity for pre-existing kinds -----------------

TEST(RunTrial, SyncDispatchIsBitIdentical) {
  const auto g = graph::hypercube(6);
  core::TrialOptions options;
  options.mode = core::Mode::kPush;
  options.message_loss = 0.2;
  rng::Engine direct_eng = rng::derive_stream(21, 3);
  rng::Engine dispatch_eng = rng::derive_stream(21, 3);

  const auto direct = core::run_sync(g, 1, direct_eng, core::SyncOptions{options});
  const auto outcome = core::run_trial(core::EngineKind::kSync, g, 1, dispatch_eng, options);
  EXPECT_EQ(outcome.value, static_cast<double>(direct.rounds));
  EXPECT_EQ(outcome.ticks, direct.rounds);
  EXPECT_EQ(outcome.completed, direct.completed);
  EXPECT_EQ(dispatch_eng.state(), direct_eng.state());
}

TEST(RunTrial, AsyncDispatchIsBitIdentical) {
  const auto g = graph::star(64);
  core::TrialOptions options;
  core::TrialExtras extras;
  extras.view = core::AsyncView::kPerNodeClocks;
  rng::Engine direct_eng = rng::derive_stream(22, 4);
  rng::Engine dispatch_eng = rng::derive_stream(22, 4);

  core::AsyncOptions direct_options{options};
  direct_options.view = core::AsyncView::kPerNodeClocks;
  const auto direct = core::run_async(g, 0, direct_eng, direct_options);
  const auto outcome = core::run_trial(core::EngineKind::kAsync, g, 0, dispatch_eng, options, extras);
  EXPECT_EQ(outcome.value, direct.time);
  EXPECT_EQ(outcome.ticks, direct.steps);
  EXPECT_EQ(outcome.completed, direct.completed);
  EXPECT_EQ(outcome.informed_time, direct.informed_time);
  EXPECT_EQ(dispatch_eng.state(), direct_eng.state());
}

TEST(RunTrial, AuxDispatchIsBitIdentical) {
  const auto g = graph::hypercube(5);
  for (const core::AuxKind kind : {core::AuxKind::kPpx, core::AuxKind::kPpy}) {
    rng::Engine direct_eng = rng::derive_stream(23, 5);
    rng::Engine dispatch_eng = rng::derive_stream(23, 5);
    core::AuxOptions direct_options;
    direct_options.kind = kind;
    core::TrialExtras extras;
    extras.aux = kind;
    const auto direct = core::run_aux(g, 2, direct_eng, direct_options);
    const auto outcome = core::run_trial(core::EngineKind::kAux, g, 2, dispatch_eng, {}, extras);
    EXPECT_EQ(outcome.value, static_cast<double>(direct.rounds));
    EXPECT_EQ(outcome.completed, direct.completed);
    EXPECT_EQ(dispatch_eng.state(), direct_eng.state());
  }
}

TEST(RunTrial, BatchSyncDispatchRunsOneLane) {
  const auto g = graph::hypercube(5);
  rng::Engine direct_eng = rng::derive_stream(25, 7);
  rng::Engine dispatch_eng = rng::derive_stream(25, 7);
  core::BatchSyncOptions direct_options;
  direct_options.lanes = 1;
  const auto direct = core::run_batch_sync(g, 0, direct_eng, direct_options);
  const auto outcome = core::run_trial(core::EngineKind::kBatchSync, g, 0, dispatch_eng, {});
  EXPECT_EQ(outcome.value, static_cast<double>(direct.rounds[0]));
  EXPECT_EQ(outcome.ticks, direct.rounds[0]);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(dispatch_eng.state(), direct_eng.state());
}

// --- Campaign scheduling -----------------------------------------------------

namespace {

sim::CampaignConfig batch_config(std::shared_ptr<const graph::Graph> g, std::uint64_t trials,
                                 std::uint32_t lanes) {
  sim::CampaignConfig cfg;
  cfg.id = "batch";
  cfg.prebuilt = std::move(g);
  cfg.engine = sim::EngineKind::kBatchSync;
  cfg.lanes = lanes;
  cfg.trials = trials;
  cfg.seed = 417;
  cfg.reservoir_capacity = trials;  // retain every (trial, value) pair
  return cfg;
}

}  // namespace

TEST(BatchCampaign, PerTrialResultsMatchDirectBatches) {
  // The scheduler's seeding contract: the block starting at trial b is one
  // lane batch on derive_stream(seed, b), including the ragged 36-lane tail
  // at trials = 100. A full-capacity reservoir in tag order is the
  // per-trial vector of the direct loop, bitwise.
  const auto g = shared(graph::hypercube(6));
  const auto cfg = batch_config(g, 100, core::kMaxBatchLanes);
  const auto results = sim::run_campaign({cfg}, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].summary.count(), 100u);
  EXPECT_EQ(results[0].lanes, core::kMaxBatchLanes);
  EXPECT_EQ(results[0].engine, "batch_sync");

  const auto direct = batch_samples(*g, core::Mode::kPushPull, 0.0, cfg.seed, 100);
  EXPECT_EQ(results[0].summary.reservoir().values(), direct);
}

TEST(BatchCampaign, BitDeterministicAcrossThreadsAndBlockSizes) {
  // effective_block_size pins batch blocks to the lane width, so the
  // campaign-wide block_size knob must not leak into batch results and
  // thread counts must agree bitwise (block partials merge in slot order).
  const auto g = shared(graph::hypercube(6));
  const auto cfg = batch_config(g, 100, 16);

  std::vector<std::vector<double>> prints;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t block_size : {5u, 32u, 64u}) {
      sim::CampaignOptions options;
      options.threads = threads;
      options.block_size = block_size;
      const auto results = sim::run_campaign({cfg}, options);
      ASSERT_EQ(results.size(), 1u);
      prints.push_back(fingerprint(results[0]));
    }
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[0], prints[i]) << i;
}

TEST(BatchCampaign, MatchesSyncCampaignDistribution) {
  // End to end: a batch cell and a sync cell over the same graph sample the
  // same law through the whole scheduler/reservoir path.
  const auto g = shared(graph::hypercube(6));
  auto batch = batch_config(g, 256, core::kMaxBatchLanes);
  sim::CampaignConfig sync = batch;
  sync.id = "plain";
  sync.engine = sim::EngineKind::kSync;
  sync.seed = 519;
  const auto results = sim::run_campaign({batch, sync}, {});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(
      dist::ks_gate(results[0].summary.reservoir().values(), results[1].summary.reservoir().values()));
}

TEST(BatchCampaign, DisconnectedPrebuiltGraphFailsWithTheRoundCapError) {
  // Nodes 2 and 3 are unreachable from the source, so the lane batch runs
  // to its round cap and the campaign must fail naming the engine.
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const auto cfg = batch_config(shared(std::move(builder).build("split")), 8, 4);
  for (const unsigned threads : {1u, 2u}) {
    sim::CampaignOptions options;
    options.threads = threads;
    try {
      (void)sim::run_campaign({cfg}, options);
      ADD_FAILURE() << "expected the round-cap error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "campaign: engine 'batch_sync' hit its round cap (disconnected graph?)");
    }
  }
}

TEST(BatchCampaign, StopAndResumeIsBitIdentical) {
  // Checkpoint loader and merger size their slot grids through
  // effective_block_size too; a stopped-and-resumed batch campaign must be
  // bit-identical to the unbroken run.
  const auto g = shared(graph::hypercube(6));
  const auto cfg = batch_config(g, 100, core::kMaxBatchLanes);
  sim::CampaignOptions options;
  options.threads = 2;
  const auto baseline = sim::run_campaign({cfg}, options);

  auto stopper = options;
  stopper.stop_after_blocks = 1;
  const auto stopped = sim::run_campaign_resumable({cfg}, stopper, "batch_ck");
  ASSERT_FALSE(stopped.complete);
  const auto resumed = sim::run_campaign_resumable({cfg}, options, "batch_ck", &stopped.snapshot);
  ASSERT_TRUE(resumed.complete);
  ASSERT_EQ(resumed.results.size(), 1u);
  EXPECT_EQ(fingerprint(resumed.results[0]), fingerprint(baseline[0]));
}

TEST(BatchCampaign, FingerprintAndReportCarryLanes) {
  const auto g = shared(graph::hypercube(6));
  const auto narrow = batch_config(g, 64, 16);
  auto wide = narrow;
  wide.lanes = 32;
  // The lane width changes which trials share a batch, hence the results:
  // it must be part of the snapshot identity...
  EXPECT_NE(sim::campaign_fingerprint("c", {narrow}), sim::campaign_fingerprint("c", {wide}));
  // ...but for non-batch engines the field is inert and must not perturb
  // pre-existing fingerprints.
  auto sync_a = narrow;
  sync_a.engine = sim::EngineKind::kSync;
  auto sync_b = wide;
  sync_b.engine = sim::EngineKind::kSync;
  EXPECT_EQ(sim::campaign_fingerprint("c", {sync_a}), sim::campaign_fingerprint("c", {sync_b}));

  const auto results = sim::run_campaign({narrow}, {});
  const auto report = sim::campaign_report(results[0], "lanes_test");
  const std::string text = report.dump(2);
  EXPECT_NE(text.find("\"lanes\": 16"), std::string::npos) << text;
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos) << text;
}

// --- Spec parsing ------------------------------------------------------------

TEST(BatchCampaignSpec, ParsesEngineObjectForm) {
  const auto spec = parse(R"({"configs": [
      {"graph": "hypercube", "n": 64,
       "engine": {"kind": "batch_sync", "lanes": 16}}]})");
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  ASSERT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].engine, sim::EngineKind::kBatchSync);
  EXPECT_EQ(spec.configs[0].lanes, 16u);
  EXPECT_EQ(spec.configs[0].id, "hypercube_n64_batch_sync_push-pull_lanes16");

  // The bare name defaults to full-width lanes, and engine arrays mix names
  // with objects.
  const auto mixed = parse(R"({"configs": [
      {"graph": "hypercube", "n": 64,
       "engine": ["sync", {"kind": "batch_sync", "lanes": 8}]}]})");
  ASSERT_TRUE(mixed.error.empty()) << mixed.error;
  ASSERT_EQ(mixed.configs.size(), 2u);
  EXPECT_EQ(mixed.configs[0].engine, sim::EngineKind::kSync);
  EXPECT_EQ(mixed.configs[1].engine, sim::EngineKind::kBatchSync);
  EXPECT_EQ(mixed.configs[1].lanes, 8u);

  const auto bare = parse(R"({"configs": [
      {"graph": "hypercube", "n": 64, "engine": "batch_sync"}]})");
  ASSERT_TRUE(bare.error.empty()) << bare.error;
  EXPECT_EQ(bare.configs[0].lanes, core::kMaxBatchLanes);
}

TEST(BatchCampaignSpec, RejectsInvalidBatchCombinations) {
  const std::vector<std::string> bad = {
      // lanes outside 1..64
      R"({"configs": [{"graph": "star", "n": 64,
          "engine": {"kind": "batch_sync", "lanes": 0}}]})",
      R"({"configs": [{"graph": "star", "n": 64,
          "engine": {"kind": "batch_sync", "lanes": 65}}]})",
      // lanes on a non-batch engine
      R"({"configs": [{"graph": "star", "n": 64,
          "engine": {"kind": "sync", "lanes": 8}}]})",
      // unknown engine-object key / missing kind / wrong shape
      R"({"configs": [{"graph": "star", "n": 64,
          "engine": {"kind": "batch_sync", "width": 8}}]})",
      R"({"configs": [{"graph": "star", "n": 64, "engine": {"lanes": 8}}]})",
      R"({"configs": [{"graph": "star", "n": 64, "engine": 7}]})",
      // batching is incompatible with racing, curves, and dynamics
      R"({"configs": [{"graph": "star", "n": 64, "engine": "batch_sync",
          "source": "race"}]})",
      R"({"configs": [{"graph": "star", "n": 64, "engine": "batch_sync",
          "curves": {"points": 32}}]})",
      R"({"configs": [{"graph": "star", "n": 64, "engine": "batch_sync",
          "dynamics": {"churn": "markov", "birth": 0.05, "death": 0.05}}]})",
  };
  for (const auto& text : bad) {
    EXPECT_FALSE(parse(text).error.empty()) << text;
  }
}
