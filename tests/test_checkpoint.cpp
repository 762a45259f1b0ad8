// Checkpoint / shard / merge tests for sim/checkpoint.hpp: the snapshot
// layer must extend the campaign determinism contract across interruptions
// (a resumed run is bit-identical to an unbroken one at any thread count),
// partition blocks across shards deterministically, and fold shard
// snapshots back into reports bit-identical to the unsharded run — while
// rejecting every identity mismatch loudly instead of merging garbage.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "support/campaign_fixtures.hpp"

using namespace rumor;

namespace {

/// A compact campaign exercising every block kind the snapshot layer
/// handles: two plain cells, a worst-source race, and a churn cell.
std::vector<sim::CampaignConfig> snapshot_configs() {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kStar = shared(graph::star(96));
  std::vector<sim::CampaignConfig> configs;

  sim::CampaignConfig plain;
  plain.id = "plain_hc";
  plain.prebuilt = kHypercube;
  plain.trials = 24;
  plain.seed = 501;
  configs.push_back(plain);

  sim::CampaignConfig async_cfg;
  async_cfg.id = "plain_star_async";
  async_cfg.prebuilt = kStar;
  async_cfg.engine = sim::EngineKind::kAsync;
  async_cfg.trials = 24;
  async_cfg.seed = 502;
  configs.push_back(async_cfg);

  sim::CampaignConfig race;
  race.id = "race_star";
  race.prebuilt = kStar;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 6;
  race.race.finalists = 2;
  race.race.max_candidates = 6;
  race.trials = 16;
  race.seed = 503;
  configs.push_back(race);

  sim::CampaignConfig churn;
  churn.id = "churn_hc";
  churn.prebuilt = kHypercube;
  churn.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  churn.dynamics.churn.birth = 0.1;
  churn.dynamics.churn.death = 0.1;
  churn.trials = 16;
  churn.seed = 504;
  configs.push_back(churn);

  return configs;
}

sim::CampaignOptions snapshot_options(unsigned threads) {
  sim::CampaignOptions options;
  options.threads = threads;
  options.block_size = 8;
  return options;
}

/// All reported statistics of one result, for exact cross-run comparison.
std::vector<double> result_stats(const sim::CampaignResult& r) {
  const auto& s = r.summary;
  std::vector<double> out = {static_cast<double>(s.count()),
                             s.mean(),
                             s.stddev(),
                             s.min(),
                             s.max(),
                             s.median(),
                             s.quantile(0.95),
                             s.hp_time(r.hp_q)};
  out.insert(out.end(), s.values().begin(), s.values().end());
  for (const auto& [tag, value] : s.reservoir().entries()) {
    out.push_back(static_cast<double>(tag));
    out.push_back(value);
  }
  return out;
}

void expect_bitwise_equal(const std::vector<sim::CampaignResult>& got,
                          const std::vector<sim::CampaignResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].graph_name, want[i].graph_name) << got[i].id;
    EXPECT_EQ(got[i].n, want[i].n) << got[i].id;
    EXPECT_EQ(got[i].trials, want[i].trials) << got[i].id;
    EXPECT_EQ(got[i].source, want[i].source) << got[i].id;
    EXPECT_EQ(got[i].best_source, want[i].best_source) << got[i].id;
    EXPECT_EQ(got[i].best_mean, want[i].best_mean) << got[i].id;
    EXPECT_EQ(result_stats(got[i]), result_stats(want[i])) << got[i].id;
  }
}

/// Expects `fn` to throw std::runtime_error whose message contains `needle`.
template <typename Fn>
void expect_throws_with(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected a runtime_error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

}  // namespace

// --- The shard partition rule ------------------------------------------------

TEST(CampaignCheckpoint, ShardRuleIsDeterministicAndCoversEveryShard) {
  // Pure function of its arguments.
  for (std::size_t slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, false, 4),
              sim::shard_of_block("cfg_a", slot, false, 4));
  }
  // whole_config ignores the slot: every block of a race stays together.
  for (std::size_t slot = 1; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, true, 4),
              sim::shard_of_block("cfg_a", 0, true, 4));
  }
  // k = 1 owns everything.
  for (std::size_t slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, false, 1), 0u);
  }
  // Over many (config, slot) pairs every shard gets work and results stay
  // in range — the partition neither clumps onto one shard nor escapes k.
  std::set<std::uint32_t> seen;
  for (int cfg = 0; cfg < 8; ++cfg) {
    for (std::size_t slot = 0; slot < 32; ++slot) {
      const std::uint32_t s = sim::shard_of_block("cfg" + std::to_string(cfg), slot, false, 4);
      ASSERT_LT(s, 4u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(CampaignCheckpoint, FingerprintReflectsEveryResultAffectingParameter) {
  const auto base = snapshot_configs();
  const std::string h = sim::campaign_fingerprint("snap", base);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, sim::campaign_fingerprint("snap", snapshot_configs()));
  EXPECT_NE(h, sim::campaign_fingerprint("other-name", base));

  auto seed = base;
  seed[0].seed += 1;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", seed));
  auto trials = base;
  trials[1].trials += 8;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", trials));
  auto race = base;
  race[2].race.finalists += 1;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", race));
  auto dyn = base;
  dyn[3].dynamics.churn.death = 0.2;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", dyn));
}

// --- Stop / resume bit-identity ----------------------------------------------

TEST(CampaignCheckpoint, StopAndResumeIsBitIdenticalAcrossThreadCounts) {
  const auto configs = snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  // An unbroken resumable run already matches the plain scheduler.
  const auto unbroken = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(unbroken.complete);
  expect_bitwise_equal(unbroken.results, baseline);

  for (const std::uint64_t stop_after : {std::uint64_t{1}, std::uint64_t{4}, std::uint64_t{9}}) {
    auto options = snapshot_options(2);
    options.stop_after_blocks = stop_after;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_FALSE(stopped.complete);
    EXPECT_GE(stopped.blocks_done, stop_after);
    ASSERT_TRUE(stopped.snapshot.is_object());

    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(threads), "snap",
                                                       &stopped.snapshot);
      ASSERT_TRUE(resumed.complete) << "stop_after=" << stop_after << " threads=" << threads;
      expect_bitwise_equal(resumed.results, baseline);
    }
  }
}

TEST(CampaignCheckpoint, ResumingAFinishedSnapshotRestoresResultsVerbatim) {
  const auto configs = snapshot_configs();
  const auto done = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(done.complete);
  const auto resumed =
      sim::run_campaign_resumable(configs, snapshot_options(4), "snap", &done.snapshot);
  ASSERT_TRUE(resumed.complete);
  expect_bitwise_equal(resumed.results, done.results);
}

TEST(CampaignCheckpoint, CheckpointFileRoundTripsThroughDisk) {
  const auto configs = snapshot_configs();
  const std::string path = testing::TempDir() + "campaign_ck_roundtrip.json";
  std::remove(path.c_str());

  auto options = snapshot_options(2);
  options.checkpoint_file = path;
  options.checkpoint_every = 2;
  options.stop_after_blocks = 5;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "checkpoint file missing: " << path;
  std::string text((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  const auto doc = sim::Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("format")->as_string(), sim::kSnapshotFormat);
  EXPECT_EQ(doc->find("finished")->type(), sim::Json::Type::kBool);
  EXPECT_FALSE(doc->find("finished")->as_bool());

  // No temp litter from the atomic writes.
  const std::string base = std::filesystem::path(path).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_NE(entry.path().filename().string().rfind(base + ".tmp", 0), 0u)
        << "leftover temp file: " << entry.path();
  }

  const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(2), "snap", &*doc);
  ASSERT_TRUE(resumed.complete);
  expect_bitwise_equal(resumed.results, sim::run_campaign(configs, snapshot_options(1)));
  std::remove(path.c_str());
}

// --- Resume validation -------------------------------------------------------

TEST(CampaignCheckpoint, ResumeRejectsEveryIdentityMismatch) {
  const auto configs = snapshot_configs();
  auto options = snapshot_options(2);
  options.stop_after_blocks = 3;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);
  const sim::Json& snap = stopped.snapshot;

  auto resume_with = [&](const sim::Json& doc) {
    return [&configs, doc] {
      (void)sim::run_campaign_resumable(configs, snapshot_options(1), "snap", &doc);
    };
  };

  sim::Json wrong_name = snap;
  wrong_name.set("campaign", "other");
  expect_throws_with(resume_with(wrong_name), "campaign");

  sim::Json wrong_hash = snap;
  wrong_hash.set("spec_hash", "0000000000000000");
  expect_throws_with(resume_with(wrong_hash), "spec hash");

  sim::Json wrong_block = snap;
  wrong_block.set("block_size", 16);
  expect_throws_with(resume_with(wrong_block), "block size");

  sim::Json wrong_shard = snap;
  wrong_shard.set("shard_index", 2);
  wrong_shard.set("shard_count", 2);
  expect_throws_with(resume_with(wrong_shard), "shard");

  sim::Json wrong_version = snap;
  wrong_version.set("version", sim::kSnapshotVersion + 1);
  expect_throws_with(resume_with(wrong_version), "version");

  sim::Json wrong_format = snap;
  wrong_format.set("format", "something-else");
  expect_throws_with(resume_with(wrong_format), "format");

  // A changed spec (different seed) under an unmodified snapshot must be
  // caught by the fingerprint even though the shape still matches.
  auto reseeded = configs;
  reseeded[0].seed += 1;
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(reseeded, snapshot_options(1), "snap", &snap); },
      "spec hash");
}

TEST(CampaignCheckpoint, RecordedCampaignsRejectDuplicateConfigIds) {
  auto configs = snapshot_configs();
  configs[1].id = configs[0].id;
  expect_throws_with([&] { (void)sim::run_campaign_resumable(configs, snapshot_options(1), "snap"); },
                     configs[0].id);
  // A run that writes, reads or returns no snapshot still accepts them:
  // nothing addresses by id there.
  EXPECT_NO_THROW((void)sim::run_campaign(configs, snapshot_options(2)));
  EXPECT_NO_THROW(
      (void)sim::run_campaign_resumable(configs, snapshot_options(2), "snap", nullptr, false));
  // A checkpoint file is a snapshot written, through either entry point.
  auto written = snapshot_options(2);
  written.checkpoint_file = testing::TempDir() + "ck_duplicate_ids.json";
  expect_throws_with([&] { (void)sim::run_campaign(configs, written); }, configs[0].id);
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, written, "snap", nullptr, false); },
      configs[0].id);
}

// --- Spread telemetry through the snapshot layer -----------------------------

namespace {

/// Two curve-enabled cells (round grid + time grid) small enough to stop
/// mid-run at block granularity.
std::vector<sim::CampaignConfig> curve_snapshot_configs() {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kStar = shared(graph::star(96));
  std::vector<sim::CampaignConfig> configs;

  sim::CampaignConfig sync_cfg;
  sync_cfg.id = "curves_hc_sync";
  sync_cfg.prebuilt = kHypercube;
  sync_cfg.trials = 24;
  sync_cfg.seed = 601;
  sync_cfg.curves.enabled = true;
  sync_cfg.curves.points = 32;
  configs.push_back(sync_cfg);

  sim::CampaignConfig async_cfg;
  async_cfg.id = "curves_star_async";
  async_cfg.prebuilt = kStar;
  async_cfg.engine = sim::EngineKind::kAsync;
  async_cfg.trials = 24;
  async_cfg.seed = 602;
  async_cfg.curves.enabled = true;
  async_cfg.curves.points = 32;
  async_cfg.curves.time_bucket = 0.25;
  configs.push_back(async_cfg);

  return configs;
}

/// The full serialized curve state plus contact totals, for exact
/// cross-run comparison.
std::vector<double> curve_stats(const sim::CampaignResult& r) {
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

TEST(CampaignCheckpoint, CurvesSurviveStopResumeBitIdentically) {
  const auto configs = curve_snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  auto options = snapshot_options(2);
  options.stop_after_blocks = 2;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  for (const unsigned threads : {1u, 8u}) {
    const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(threads), "snap",
                                                     &stopped.snapshot);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    expect_bitwise_equal(resumed.results, baseline);
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(curve_stats(resumed.results[i]), curve_stats(baseline[i]))
          << baseline[i].id << " threads=" << threads;
    }
  }

  // A finished snapshot restores the curves verbatim too.
  const auto done = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(done.complete);
  const auto restored =
      sim::run_campaign_resumable(configs, snapshot_options(4), "snap", &done.snapshot);
  ASSERT_TRUE(restored.complete);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(curve_stats(restored.results[i]), curve_stats(baseline[i])) << baseline[i].id;
  }
}

TEST(CampaignShard, CurvesSurviveTwoShardMergeBitIdentically) {
  const auto configs = curve_snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }
  const auto merged = sim::merge_campaign_snapshots(configs, "snap", snapshots);
  expect_bitwise_equal(merged, baseline);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_TRUE(merged[i].has_curves) << baseline[i].id;
    EXPECT_EQ(curve_stats(merged[i]), curve_stats(baseline[i])) << baseline[i].id;
  }
}

TEST(CampaignCheckpoint, CurveSpecIsPartOfTheSnapshotIdentity) {
  // A snapshot taken without curves must not resume a curve-enabled spec
  // (and vice versa): the fingerprint covers the curve grid.
  auto configs = curve_snapshot_configs();
  configs[0].curves.enabled = false;
  configs[1].curves.enabled = false;
  auto options = snapshot_options(2);
  options.stop_after_blocks = 1;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  const auto curved = curve_snapshot_configs();
  expect_throws_with(
      [&] {
        (void)sim::run_campaign_resumable(curved, snapshot_options(1), "snap", &stopped.snapshot);
      },
      "spec hash");
}

// --- Sharding + merge --------------------------------------------------------

TEST(CampaignShard, ShardsMergeBitIdenticalToUnshardedRunForSeveralK) {
  const auto configs = snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  for (const std::uint32_t k : {1u, 2u, 4u}) {
    std::vector<sim::Json> snapshots;
    for (std::uint32_t i = 1; i <= k; ++i) {
      auto options = snapshot_options(2);
      options.shard_index = i;
      options.shard_count = k;
      const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
      ASSERT_TRUE(outcome.complete);
      snapshots.push_back(outcome.snapshot);
    }
    const auto merged = sim::merge_campaign_snapshots(configs, "snap", snapshots);
    expect_bitwise_equal(merged, baseline);
  }
}

TEST(CampaignShard, RaceConfigurationsAreOwnedWholesaleByOneShard) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }
  int done_in = 0;
  for (const sim::Json& snap : snapshots) {
    for (const sim::Json& entry : snap.find("configs")->elements()) {
      if (entry.find("id")->as_string() != "race_star") continue;
      const std::string phase = entry.find("phase")->as_string();
      if (phase == "done") ++done_in;
      else EXPECT_EQ(phase, "pending");
    }
  }
  EXPECT_EQ(done_in, 1);
}

TEST(CampaignShard, MergeRejectsBadShardSets) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }

  // Missing shard.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "snap", {snapshots[0]}); }, "shard");
  // Duplicate shard.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "snap", {snapshots[0], snapshots[0]}); },
      "shard");
  // Wrong campaign name.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "other", snapshots); }, "campaign");
  // Tampered spec hash.
  {
    auto bad = snapshots;
    bad[1].set("spec_hash", "0000000000000000");
    expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                       "spec hash");
  }
  // Overlap: the same shard's work presented under both indices.
  {
    auto bad = snapshots;
    bad[1] = snapshots[0];
    bad[1].set("shard_index", 2);
    expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                       "both shard");
  }
  // An unfinished shard must be refused outright.
  {
    auto options = snapshot_options(2);
    options.shard_index = 1;
    options.shard_count = 2;
    options.stop_after_blocks = 1;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_FALSE(stopped.complete);
    expect_throws_with(
        [&] {
          (void)sim::merge_campaign_snapshots(configs, "snap", {stopped.snapshot, snapshots[1]});
        },
        "finished");
  }
  // Tampered slot entries of a config split across the shards: one beyond
  // the config's slot grid, and a curve partial on a config without curves.
  // Merge must refuse both as resume does, naming the shard and the slot.
  std::size_t shard = 0;
  std::size_t config = 0;
  for (; shard < snapshots.size(); ++shard) {
    const auto& entries = snapshots[shard].find("configs")->elements();
    for (config = 0; config < entries.size(); ++config) {
      if (entries[config].find("phase")->as_string() == "trials") break;
    }
    if (config < entries.size()) break;
  }
  ASSERT_LT(shard, snapshots.size()) << "no config is split across the two shards";
  const std::string where = "shard " + std::to_string(shard + 1) + ": slot ";
  auto tamper = [&](auto&& edit_slot) {
    auto bad = snapshots;
    sim::Json entries = sim::Json::array();
    for (std::size_t c = 0; c < configs.size(); ++c) {
      sim::Json entry = bad[shard].find("configs")->elements()[c];
      if (c == config) {
        sim::Json slots = *entry.find("slots");
        sim::Json slot = slots.elements().front();
        edit_slot(slot);
        slots.push_back(std::move(slot));
        entry.set("slots", std::move(slots));
      }
      entries.push_back(std::move(entry));
    }
    bad[shard].set("configs", std::move(entries));
    return bad;
  };
  const auto beyond = tamper([](sim::Json& slot) { slot.set("slot", 99); });
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", beyond); },
                     where + "99 out of range");
  const auto first_slot = static_cast<std::uint64_t>(snapshots[shard]
                                                          .find("configs")
                                                          ->elements()[config]
                                                          .find("slots")
                                                          ->elements()
                                                          .front()
                                                          .find("slot")
                                                          ->as_number());
  const auto curved = tamper([](sim::Json& slot) { slot.set("curves", sim::Json::object()); });
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", curved); },
                     where + std::to_string(first_slot) +
                         " has a curve partial but the spec does not enable curves");
}

TEST(CampaignShard, ShardedRunsResumeToo) {
  // A shard stopped mid-way and resumed must produce the same partial
  // snapshot (hence the same merged report) as an unbroken shard run.
  const auto configs = snapshot_configs();
  auto options = snapshot_options(2);
  options.shard_index = 1;
  options.shard_count = 2;
  const auto unbroken = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_TRUE(unbroken.complete);

  auto stop_options = options;
  stop_options.stop_after_blocks = 2;
  const auto stopped = sim::run_campaign_resumable(configs, stop_options, "snap");
  ASSERT_FALSE(stopped.complete);
  const auto resumed =
      sim::run_campaign_resumable(configs, options, "snap", &stopped.snapshot);
  ASSERT_TRUE(resumed.complete);
  // written_at is a wall-clock stamp (stale-shard diagnostics, advisory
  // only); pin it on both sides so the byte comparison covers the
  // deterministic payload.
  auto pin_written_at = [](sim::Json snapshot) {
    snapshot.set("written_at", 0);
    return snapshot.dump(2);
  };
  EXPECT_EQ(pin_written_at(resumed.snapshot), pin_written_at(unbroken.snapshot));
}

TEST(CampaignCheckpoint, FileGraphsFingerprintByContentNotPath) {
  // A packed store carries its identity in the header checksum, so a
  // campaign fingerprint must survive moving/renaming the file — and must
  // change when the file holds a different graph.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  const fs::path store_a = dir / "rumor_test_fp_a.rgs";
  const fs::path store_a_copy = dir / "rumor_test_fp_a_renamed.rgs";
  const fs::path store_b = dir / "rumor_test_fp_b.rgs";
  {
    sim::GraphSpec spec;
    spec.family = "random_regular";
    spec.n = 60;
    spec.degree = 4;
    spec.graph_seed = 11;
    graph::write_graph_store(sim::build_graph(spec, 1), store_a.string());
    fs::copy_file(store_a, store_a_copy, fs::copy_options::overwrite_existing);
    spec.graph_seed = 12;  // same family and shape, different sampled edges
    graph::write_graph_store(sim::build_graph(spec, 1), store_b.string());
  }
  auto fingerprint_of = [](const fs::path& path) {
    sim::CampaignConfig cfg;
    cfg.id = "cell";
    cfg.graph.family = "file";
    cfg.graph.path = path.string();
    cfg.trials = 8;
    cfg.seed = 3;
    return sim::campaign_fingerprint("snap", {cfg});
  };
  EXPECT_EQ(fingerprint_of(store_a), fingerprint_of(store_a_copy));
  EXPECT_NE(fingerprint_of(store_a), fingerprint_of(store_b));
  for (const fs::path& p : {store_a, store_a_copy, store_b}) fs::remove(p);
}

// --- The written file is the snapshot tree's rendering ------------------------
//
// write_checkpoint renders each configuration's entry once and re-renders
// only the entries recorded since the previous write; the file must still
// be exactly what Json::dump(2) makes of snapshot().

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "checkpoint file missing: " << path;
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

/// Checkpoint text with the wall-clock `written_at` stamp pinned to 0.
std::string pin_written_at(std::string text) {
  const std::string key = "\n  \"written_at\": ";
  const std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << text.substr(0, 400);
  if (at == std::string::npos) return text;
  const std::size_t digits = at + key.size();
  text.replace(digits, text.find(',', digits) - digits, "0");
  return text;
}

/// Expects the checkpoint file at `path` to hold `snapshot.dump(2)` plus a
/// newline, with the wall-clock `written_at` stamp pinned to 0 on both sides.
void expect_file_is_tree(const std::string& path, sim::Json snapshot) {
  snapshot.set("written_at", 0);
  EXPECT_EQ(pin_written_at(read_file(path)), snapshot.dump(2) + "\n") << path;
}

/// Runs the campaign with a checkpoint file and expects the final write to
/// equal the returned snapshot tree byte for byte: the two share one
/// header, so not even `written_at` may differ.
sim::CampaignOutcome run_and_expect_file_is_tree(const std::vector<sim::CampaignConfig>& configs,
                                                 sim::CampaignOptions options,
                                                 const std::string& name,
                                                 const sim::Json* resume = nullptr) {
  options.checkpoint_file = testing::TempDir() + name;
  std::remove(options.checkpoint_file.c_str());
  auto outcome = sim::run_campaign_resumable(configs, options, "snap", resume);
  EXPECT_EQ(read_file(options.checkpoint_file), outcome.snapshot.dump(2) + "\n")
      << options.checkpoint_file;
  std::remove(options.checkpoint_file.c_str());
  return outcome;
}

std::set<std::string> phases_of(const sim::Json& snapshot) {
  std::set<std::string> phases;
  for (const sim::Json& e : snapshot.find("configs")->elements()) {
    phases.insert(e.find("phase")->as_string());
  }
  return phases;
}

}  // namespace

TEST(CampaignCheckpoint, PlainRunWritesTheResumableRunsFile) {
  // run_campaign is run_campaign_resumable under the name "campaign": given
  // a checkpoint file it writes the same bytes, written_at aside.
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto options = snapshot_options(threads);
    options.checkpoint_every = 1;
    options.checkpoint_file = testing::TempDir() + "ck_plain_run.json";
    std::remove(options.checkpoint_file.c_str());
    const auto plain = sim::run_campaign(snapshot_configs(), options);
    const std::string plain_file = pin_written_at(read_file(options.checkpoint_file));
    std::remove(options.checkpoint_file.c_str());
    const auto resumable = sim::run_campaign_resumable(snapshot_configs(), options, "campaign");
    EXPECT_EQ(plain_file, pin_written_at(read_file(options.checkpoint_file)))
        << "threads=" << threads;
    expect_bitwise_equal(plain, resumable.results);
    std::remove(options.checkpoint_file.c_str());
  }
}

TEST(CampaignCheckpoint, RunWithoutSnapshotWritesTheSameFile) {
  auto options = snapshot_options(2);
  options.checkpoint_every = 1;
  options.checkpoint_file = testing::TempDir() + "ck_no_snapshot.json";
  std::remove(options.checkpoint_file.c_str());
  const auto bare = sim::run_campaign_resumable(snapshot_configs(), options, "snap", nullptr, false);
  EXPECT_TRUE(bare.snapshot.is_null());
  const std::string bare_file = pin_written_at(read_file(options.checkpoint_file));
  const auto full = sim::run_campaign_resumable(snapshot_configs(), options, "snap");
  EXPECT_FALSE(full.snapshot.is_null());
  EXPECT_EQ(bare_file, pin_written_at(read_file(options.checkpoint_file)));
  expect_bitwise_equal(bare.results, full.results);
  std::remove(options.checkpoint_file.c_str());
}

TEST(CampaignCheckpoint, FileEqualsTreeWhenStoppedMidRun) {
  auto options = snapshot_options(1);
  options.checkpoint_every = 1;
  options.stop_after_blocks = 5;
  const auto outcome =
      run_and_expect_file_is_tree(snapshot_configs(), options, "ck_tree_mid.json");
  ASSERT_FALSE(outcome.complete);
  const auto phases = phases_of(outcome.snapshot);
  EXPECT_TRUE(phases.count("trials") == 1 && phases.count("done") == 1)
      << "want a mix of 'trials' and 'done' entries";
}

TEST(CampaignCheckpoint, FileEqualsTreeInBothRacePhases) {
  const std::vector<sim::CampaignConfig> race = {snapshot_configs()[2]};
  std::set<std::string> seen;
  for (std::uint64_t stop = 1; stop <= 24; ++stop) {
    auto options = snapshot_options(1);
    options.checkpoint_every = 1;
    options.stop_after_blocks = stop;
    const auto outcome = run_and_expect_file_is_tree(race, options, "ck_tree_race.json");
    seen.insert(outcome.snapshot.find("configs")->elements()[0].find("phase")->as_string());
    if (outcome.complete) break;
  }
  EXPECT_EQ(seen.count("screen"), 1u);
  EXPECT_EQ(seen.count("refine"), 1u);
}

TEST(CampaignCheckpoint, FileEqualsTreeWithCurves) {
  auto options = snapshot_options(1);
  options.checkpoint_every = 1;
  options.stop_after_blocks = 4;
  const auto outcome =
      run_and_expect_file_is_tree(curve_snapshot_configs(), options, "ck_tree_curves.json");
  ASSERT_FALSE(outcome.complete);
  EXPECT_NE(outcome.snapshot.dump().find("\"curves\""), std::string::npos);
}

TEST(CampaignShard, FileEqualsTreeForAShardPartial) {
  auto options = snapshot_options(2);
  options.checkpoint_every = 1;
  options.shard_index = 2;
  options.shard_count = 3;
  const auto outcome =
      run_and_expect_file_is_tree(snapshot_configs(), options, "ck_tree_shard.json");
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.snapshot.find("finished")->as_bool());
}

TEST(CampaignCheckpoint, FileEqualsTreeAfterResume) {
  const auto configs = snapshot_configs();
  auto options = snapshot_options(1);
  options.checkpoint_every = 1;
  options.stop_after_blocks = 4;
  const auto stopped = run_and_expect_file_is_tree(configs, options, "ck_tree_resume.json");
  ASSERT_FALSE(stopped.complete);
  // No periodic write before the end: the final write renders entries that
  // only load() put there.
  options.checkpoint_every = 0;
  options.stop_after_blocks = 1;
  (void)run_and_expect_file_is_tree(configs, options, "ck_tree_resume.json", &stopped.snapshot);
  options.stop_after_blocks = 0;
  const auto resumed =
      run_and_expect_file_is_tree(configs, options, "ck_tree_resume.json", &stopped.snapshot);
  EXPECT_TRUE(resumed.complete);
}

TEST(CampaignCheckpoint, SuccessiveWritesReRenderWhatChanged) {
  const auto configs = snapshot_configs();
  auto options = snapshot_options(1);
  options.checkpoint_file = testing::TempDir() + "ck_tree_recorder.json";
  sim::CampaignRecorder recorder(configs, options, "snap");
  stats::StreamingSummary partial(
      sim::summary_options_for(configs[0], options.sketch_capacity, options.reservoir_capacity));

  partial.add(3.0, 0);
  recorder.record_graph(0, "hypercube", 64);
  recorder.record_trial_slot(0, 0, partial);
  recorder.write_checkpoint(false);
  expect_file_is_tree(options.checkpoint_file, recorder.snapshot(false));

  // Between writes, config 0 gains a slot, config 1 builds its graph and
  // the race enters its screen phase; a stale fragment would show the
  // previous write's entries.
  partial.add(5.0, 1);
  recorder.record_trial_slot(0, 1, partial);
  recorder.record_graph(1, "star", 96);
  recorder.record_plan(2, {0, 5, 9});
  recorder.write_checkpoint(false);
  expect_file_is_tree(options.checkpoint_file, recorder.snapshot(false));

  // Then config 0 finishes and the race picks its finalists.
  recorder.record_done(0, sim::run_campaign(configs, options).front());
  recorder.record_finalists(2, {5});
  recorder.write_checkpoint(false);
  expect_file_is_tree(options.checkpoint_file, recorder.snapshot(false));

  // load() replaces every entry after fragments were cached.
  auto stop_options = snapshot_options(1);
  stop_options.stop_after_blocks = 6;
  const auto stopped = sim::run_campaign_resumable(configs, stop_options, "snap");
  (void)recorder.load(stopped.snapshot);
  recorder.write_checkpoint(true);
  expect_file_is_tree(options.checkpoint_file, recorder.snapshot(true));
  std::remove(options.checkpoint_file.c_str());
}

TEST(CampaignShard, OneOfOneShardSnapshotIsItsCheckpointFile) {
  // What a 1/1 shard prints is the document its final write put on disk,
  // written_at included: the final write and the snapshot share one header.
  auto options = snapshot_options(2);
  options.checkpoint_every = 1;
  options.shard_index = 1;
  options.shard_count = 1;
  options.checkpoint_file = testing::TempDir() + "ck_shard11.json";
  for (const std::uint64_t stop : {std::uint64_t{3}, std::uint64_t{0}}) {
    options.stop_after_blocks = stop;
    std::remove(options.checkpoint_file.c_str());
    const auto outcome = sim::run_campaign_resumable(snapshot_configs(), options, "snap");
    EXPECT_EQ(outcome.complete, stop == 0);
    EXPECT_EQ(read_file(options.checkpoint_file), outcome.snapshot.dump(2) + "\n") << stop;
  }
  std::remove(options.checkpoint_file.c_str());
}

TEST(CampaignCheckpoint, LoadThenWriteGivesTheLoadedFileBackInEveryPhase) {
  // Campaigns stopped at every block budget leave files with configs in
  // every phase (with and without curves). Loading one into a fresh
  // recorder and writing it again must give the loaded bytes back
  // (written_at aside): the typed store holds everything the file says.
  const std::string path = testing::TempDir() + "ck_round_trip.json";
  const std::string back = testing::TempDir() + "ck_round_trip_back.json";
  std::set<std::string> seen;
  bool curves_mid_run = false;
  for (const auto& configs : {snapshot_configs(), curve_snapshot_configs()}) {
    for (std::uint64_t stop = 1;; ++stop) {
      auto options = snapshot_options(1);
      options.checkpoint_file = path;
      options.stop_after_blocks = stop;
      std::remove(path.c_str());
      const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
      const auto phases = phases_of(outcome.snapshot);
      seen.insert(phases.begin(), phases.end());
      curves_mid_run |= configs[0].curves.enabled && phases.count("trials") != 0;

      const std::string text = read_file(path);
      const auto doc = sim::Json::parse(text);
      ASSERT_TRUE(doc.has_value()) << path;
      options.checkpoint_file = back;
      sim::CampaignRecorder recorder(configs, options, "snap");
      (void)recorder.load(*doc);
      recorder.write_checkpoint(outcome.complete);
      EXPECT_EQ(pin_written_at(read_file(back)), pin_written_at(text)) << "stop " << stop;
      if (outcome.complete) break;
    }
  }
  for (const char* phase : {"pending", "trials", "screen", "refine", "done"}) {
    EXPECT_EQ(seen.count(phase), 1u) << phase;
  }
  EXPECT_TRUE(curves_mid_run);
  std::remove(path.c_str());
  std::remove(back.c_str());
}

// --- The background checkpoint writer ----------------------------------------
//
// Periodic writes run on a writer thread the recorder owns; workers only
// flag them. A failed write must still fail the campaign, naming the file,
// and no exit path may hang on or abandon the writer.

TEST(CampaignCheckpoint, WriterErrorFailsTheCampaignNamingTheFile) {
  auto options = snapshot_options(2);
  options.checkpoint_every = 1;
  options.checkpoint_file = testing::TempDir() + "no_such_dir/ck_writer.json";
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(snapshot_configs(), options, "snap"); },
      options.checkpoint_file);
}

TEST(CampaignCheckpoint, WriterErrorSurfacesInBlockFinishedAndDrain) {
  const auto configs = snapshot_configs();
  auto options = snapshot_options(1);
  options.checkpoint_every = 1;
  options.checkpoint_file = testing::TempDir() + "no_such_dir/ck_recorder.json";
  sim::CampaignRecorder recorder(configs, options, "snap");
  // The first due write starts the writer; its failure reaches a later call.
  bool threw = false;
  for (int i = 0; i < 10000 && !threw; ++i) {
    try {
      (void)recorder.block_finished();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find(options.checkpoint_file), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(threw);
  expect_throws_with([&] { recorder.drain_writes(); }, options.checkpoint_file);
}

TEST(CampaignCheckpoint, EngineErrorWithAWritePendingUnwindsCleanly) {
  // Two good configs request a write per block; the third one's source is
  // out of range, so its first block throws inside a worker while the
  // writer is busy or has a request queued.
  auto configs = snapshot_configs();
  configs.resize(2);
  sim::CampaignConfig bad = configs[0];
  bad.id = "bad_source";
  bad.source = 1000;
  configs.push_back(bad);
  for (unsigned threads : {1u, 2u}) {
    auto options = snapshot_options(threads);
    options.checkpoint_every = 1;
    options.checkpoint_file = testing::TempDir() + "ck_engine_error.json";
    expect_throws_with([&] { (void)sim::run_campaign_resumable(configs, options, "snap"); },
                       "out of range");
    std::remove(options.checkpoint_file.c_str());
  }
}

TEST(CampaignCheckpoint, WriterCountsEveryWriteAndTheFinalFileIsTheTree) {
  for (unsigned threads : {1u, 3u}) {
    obs::Telemetry tel;
    auto options = snapshot_options(threads);
    options.checkpoint_every = 1;
    options.telemetry = &tel;
    const auto outcome =
        run_and_expect_file_is_tree(snapshot_configs(), options, "ck_writer_count.json");
    EXPECT_TRUE(outcome.complete);
    // Coalesced requests write less often than once per block, and the
    // final synchronous write always lands.
    const std::uint64_t writes = tel.snapshot().checkpoint_writes;
    EXPECT_GE(writes, 1u) << threads;
    EXPECT_LE(writes, outcome.blocks_done + 1) << threads;
  }
}

// --- Resume at every pass boundary -------------------------------------------
//
// A crash right after a periodic write can leave a pass whose every slot is
// recorded while its hand-off (the done entry, or the finalists) is not.
// Resume must then re-run one block to re-trigger the fold and still match
// the unbroken run bit for bit. A stopped campaign never leaves that state
// (the hand-off runs inside the last block), so these tests build it: they
// load a stopped snapshot into a recorder and record the missing slots with
// partials computed the way the scheduler computes them.

namespace {

/// The race's per-source stream family: candidate u's screening trial t
/// runs on derive_stream(seed + kSourceStride * u, t), its refinement trial
/// on derive_stream(seed + 1 + kSourceStride * u, t).
constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;

/// Calls add(value, t) for trials [begin, end) of the static configuration
/// `cfg` from `source`, trial t running on derive_stream(stream_seed, t).
template <typename Add>
void for_each_trial(const sim::CampaignConfig& cfg, graph::NodeId source,
                    std::uint64_t stream_seed, std::uint64_t begin, std::uint64_t end, Add&& add) {
  core::TrialOptions options;
  options.mode = cfg.mode;
  core::TrialExtras extras;
  extras.view = cfg.view;
  for (std::uint64_t t = begin; t < end; ++t) {
    rng::Engine eng = rng::derive_stream(stream_seed, t);
    const core::TrialOutcome outcome =
        core::run_trial(cfg.engine, *cfg.prebuilt, source, eng, options, extras);
    ASSERT_TRUE(outcome.completed);
    add(outcome.value, t);
  }
}

/// Calls record(slot, begin, end) for each block-size slot of `trials`.
template <typename Record>
void for_each_slot(std::uint64_t trials, std::uint64_t block_size, Record&& record) {
  for (std::uint64_t begin = 0; begin < trials; begin += block_size) {
    record(static_cast<std::size_t>(begin / block_size), begin,
           std::min(begin + block_size, trials));
  }
}

/// The first snapshot of a run (one thread by default) stopped after 1, 2,
/// ... blocks whose configs[c] is in `phase`.
sim::Json first_snapshot_in_phase(const std::vector<sim::CampaignConfig>& configs, std::size_t c,
                                  const std::string& phase,
                                  sim::CampaignOptions options = snapshot_options(1)) {
  for (std::uint64_t stop = 1; stop < 200; ++stop) {
    options.stop_after_blocks = stop;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    if (outcome.complete) break;
    const sim::Json& entry = outcome.snapshot.find("configs")->elements()[c];
    if (entry.find("phase")->as_string() == phase) return outcome.snapshot;
  }
  ADD_FAILURE() << "no stopped snapshot has configs[" << c << "] in phase " << phase;
  return sim::Json();
}

/// How many elements configs[c].`key` holds in `snapshot` (0 if absent).
std::size_t entry_count(const sim::Json& snapshot, std::size_t c, const char* key) {
  const sim::Json* items = snapshot.find("configs")->elements()[c].find(key);
  return items == nullptr ? 0 : items->elements().size();
}

/// Resumes `snapshot` at 1 and 3 threads; each must equal the unbroken run.
void expect_resumes_bit_identically(const std::vector<sim::CampaignConfig>& configs,
                                    const sim::Json& snapshot) {
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));
  for (const unsigned threads : {1u, 3u}) {
    const auto resumed =
        sim::run_campaign_resumable(configs, snapshot_options(threads), "snap", &snapshot);
    ASSERT_TRUE(resumed.complete) << "threads " << threads;
    expect_bitwise_equal(resumed.results, baseline);
  }
}

}  // namespace

TEST(CampaignCheckpoint, ResumeRefoldsATrialsPassWhoseEverySlotIsRecorded) {
  const auto configs = snapshot_configs();
  const sim::CampaignConfig& cfg = configs[0];  // plain_hc: 24 trials, three slots
  const auto options = snapshot_options(1);
  sim::CampaignRecorder recorder(configs, options, "snap");
  (void)recorder.load(first_snapshot_in_phase(configs, 0, "trials"));
  for_each_slot(cfg.trials, options.block_size,
                [&](std::size_t slot, std::uint64_t begin, std::uint64_t end) {
                  stats::StreamingSummary partial(sim::summary_options_for(
                      cfg, options.sketch_capacity, options.reservoir_capacity));
                  for_each_trial(cfg, cfg.source, cfg.seed, begin, end,
                                 [&](double value, std::uint64_t t) { partial.add(value, t); });
                  recorder.record_trial_slot(0, slot, partial);
                });
  const sim::Json snapshot = recorder.snapshot(false);
  ASSERT_EQ(snapshot.find("configs")->elements()[0].find("phase")->as_string(), "trials");
  ASSERT_EQ(entry_count(snapshot, 0, "slots"), sim::slot_count(cfg.trials, options.block_size));
  expect_resumes_bit_identically(configs, snapshot);
}

TEST(CampaignCheckpoint, ResumeRefoldsAScreenPassWhoseEverySlotIsRecorded) {
  const auto configs = snapshot_configs();
  const sim::CampaignConfig& cfg = configs[2];  // race_star
  const auto options = snapshot_options(1);
  sim::CampaignRecorder recorder(configs, options, "snap");
  const auto entries = recorder.load(first_snapshot_in_phase(configs, 2, "screen"));
  const std::vector<graph::NodeId>& candidates = entries[2].candidates;
  for (std::uint32_t i = 0; i < candidates.size(); ++i) {
    const graph::NodeId u = candidates[i];
    for_each_slot(cfg.race.screen_trials, options.block_size,
                  [&](std::size_t slot, std::uint64_t begin, std::uint64_t end) {
                    stats::RunningMoments partial;
                    for_each_trial(cfg, u, cfg.seed + kSourceStride * u, begin, end,
                                   [&](double value, std::uint64_t) { partial.add(value); });
                    recorder.record_screen_slot(2, i, slot, partial);
                  });
  }
  const sim::Json snapshot = recorder.snapshot(false);
  ASSERT_EQ(snapshot.find("configs")->elements()[2].find("phase")->as_string(), "screen");
  ASSERT_EQ(entry_count(snapshot, 2, "screen"),
            candidates.size() * sim::slot_count(cfg.race.screen_trials, options.block_size));
  expect_resumes_bit_identically(configs, snapshot);
}

TEST(CampaignCheckpoint, ResumeRefoldsARefinePassWhoseEverySlotIsRecorded) {
  const auto configs = snapshot_configs();
  const sim::CampaignConfig& cfg = configs[2];  // race_star: final_trials = trials
  const auto options = snapshot_options(1);
  sim::CampaignRecorder recorder(configs, options, "snap");
  const auto entries = recorder.load(first_snapshot_in_phase(configs, 2, "refine"));
  const std::vector<graph::NodeId>& finalists = entries[2].finalists;
  for (std::uint32_t i = 0; i < finalists.size(); ++i) {
    const graph::NodeId u = finalists[i];
    for_each_slot(cfg.trials, options.block_size,
                  [&](std::size_t slot, std::uint64_t begin, std::uint64_t end) {
                    stats::StreamingSummary partial(sim::summary_options_for(
                        cfg, options.sketch_capacity, options.reservoir_capacity));
                    for_each_trial(cfg, u, cfg.seed + 1 + kSourceStride * u, begin, end,
                                   [&](double value, std::uint64_t t) { partial.add(value, t); });
                    recorder.record_refine_slot(2, i, slot, partial);
                  });
  }
  const sim::Json snapshot = recorder.snapshot(false);
  ASSERT_EQ(snapshot.find("configs")->elements()[2].find("phase")->as_string(), "refine");
  ASSERT_EQ(entry_count(snapshot, 2, "refine"),
            finalists.size() * sim::slot_count(cfg.trials, options.block_size));
  expect_resumes_bit_identically(configs, snapshot);
}

namespace {

/// A race whose screen and refine passes each span three slots of 16 (more
/// than twice the block size; full slots run on the trial lanes where the
/// CPU has them, the short tails on the scalar loop), beside a plain cell.
/// Every hypercube source has the same law, so the screen ranking is pure
/// noise: any change to a slot's contribution reorders it.
std::vector<sim::CampaignConfig> multi_slot_race_configs() {
  static const auto kHypercube = shared(graph::hypercube(6));
  sim::CampaignConfig race;
  race.id = "race_hc";
  race.prebuilt = kHypercube;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 40;  // slots of 16, 16 and 8
  race.race.finalists = 2;
  race.race.final_trials = 36;  // slots of 16, 16 and 4
  race.race.max_candidates = 8;
  race.trials = 8;
  race.seed = 507;
  sim::CampaignConfig plain;
  plain.id = "plain_hc";
  plain.prebuilt = kHypercube;
  plain.engine = sim::EngineKind::kAsync;
  plain.trials = 40;
  plain.seed = 508;
  return {race, plain};
}

sim::CampaignOptions multi_slot_options(unsigned threads) {
  auto options = snapshot_options(threads);
  options.block_size = 16;
  return options;
}

}  // namespace

TEST(CampaignCheckpoint, MultiSlotRacePassesResumeFromEveryStop) {
  const auto configs = multi_slot_race_configs();
  const auto baseline = sim::run_campaign(configs, multi_slot_options(1));
  for (const unsigned threads : {2u, 8u}) {
    expect_bitwise_equal(sim::run_campaign(configs, multi_slot_options(threads)), baseline);
  }
  const auto unbroken = sim::run_campaign_resumable(configs, multi_slot_options(1), "snap");
  ASSERT_TRUE(unbroken.complete);
  expect_bitwise_equal(unbroken.results, baseline);

  std::set<std::string> race_phases;
  for (std::uint64_t stop = 1; stop <= unbroken.blocks_done; ++stop) {
    auto options = multi_slot_options(1);
    options.stop_after_blocks = stop;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    race_phases.insert(
        stopped.snapshot.find("configs")->elements()[0].find("phase")->as_string());
    const unsigned threads = 1 + static_cast<unsigned>(stop % 3);
    const auto resumed = sim::run_campaign_resumable(configs, multi_slot_options(threads), "snap",
                                                     &stopped.snapshot);
    ASSERT_TRUE(resumed.complete) << "stop " << stop;
    expect_bitwise_equal(resumed.results, baseline);
  }
  for (const char* phase : {"screen", "refine", "done"}) {
    EXPECT_EQ(race_phases.count(phase), 1u) << phase;
  }
}

TEST(CampaignCheckpoint, MultiSlotRaceMatchesAnIndependentSlotOrderFold) {
  // The race recomputed outside the scheduler from its candidate list:
  // each entrant's slot partials merged in slot order, the leaders by
  // screen mean (descending, node id breaking ties) refined, and the worst
  // and best finalist picked, first seen winning ties.
  const auto configs = multi_slot_race_configs();
  const sim::CampaignConfig& cfg = configs[0];
  const auto options = multi_slot_options(1);
  const sim::Json screening = first_snapshot_in_phase(configs, 0, "screen", options);
  std::vector<std::pair<double, graph::NodeId>> screened;
  for (const sim::Json& id : screening.find("configs")->elements()[0].find("candidates")->elements()) {
    const auto u = static_cast<graph::NodeId>(id.as_number());
    stats::RunningMoments total;
    for_each_slot(cfg.race.screen_trials, options.block_size,
                  [&](std::size_t slot, std::uint64_t begin, std::uint64_t end) {
                    stats::RunningMoments partial;
                    for_each_trial(cfg, u, cfg.seed + kSourceStride * u, begin, end,
                                   [&](double value, std::uint64_t) { partial.add(value); });
                    if (slot == 0) {
                      total = partial;
                    } else {
                      total.merge(partial);
                    }
                  });
    screened.emplace_back(total.mean(), u);
  }
  std::sort(screened.begin(), screened.end(), std::greater<>());
  screened.resize(cfg.race.finalists);

  sim::CampaignResult want = sim::campaign_result_skeleton(cfg, 0);
  for (std::size_t i = 0; i < screened.size(); ++i) {
    const graph::NodeId u = screened[i].second;
    const auto summary_options =
        sim::summary_options_for(cfg, options.sketch_capacity, options.reservoir_capacity);
    stats::StreamingSummary total(summary_options);
    for_each_slot(cfg.race.final_trials, options.block_size,
                  [&](std::size_t slot, std::uint64_t begin, std::uint64_t end) {
                    stats::StreamingSummary partial(summary_options);
                    for_each_trial(cfg, u, cfg.seed + 1 + kSourceStride * u, begin, end,
                                   [&](double value, std::uint64_t t) { partial.add(value, t); });
                    if (slot == 0) {
                      total = std::move(partial);
                    } else {
                      total.merge(partial);
                    }
                  });
    const double mean = total.mean();
    if (i == 0 || mean > want.summary.mean()) {
      want.source = u;
      want.summary = std::move(total);
    }
    if (i == 0 || mean < want.best_mean) {
      want.best_source = u;
      want.best_mean = mean;
    }
  }
  const auto got = sim::run_campaign(configs, multi_slot_options(3));
  want.graph_name = got[0].graph_name;
  want.n = got[0].n;
  expect_bitwise_equal({got[0]}, {want});
}

// --- Merge errors no other test reaches ----------------------------------------

namespace {

/// `snapshot` with its configs[c] entry passed through edit(entry).
template <typename Edit>
sim::Json with_entry(sim::Json snapshot, std::size_t c, Edit&& edit) {
  sim::Json entries = sim::Json::array();
  const auto& old = snapshot.find("configs")->elements();
  for (std::size_t i = 0; i < old.size(); ++i) {
    sim::Json entry = old[i];
    if (i == c) edit(entry);
    entries.push_back(std::move(entry));
  }
  snapshot.set("configs", std::move(entries));
  return snapshot;
}

std::string phase_of(const sim::Json& snapshot, std::size_t c) {
  return snapshot.find("configs")->elements()[c].find("phase")->as_string();
}

}  // namespace

TEST(CampaignShard, MergeRejectsInconsistentShardEntries) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> shards;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    shards.push_back(sim::run_campaign_resumable(configs, options, "snap").snapshot);
  }
  auto merge_fails_with = [&](const std::vector<sim::Json>& set, const std::string& needle) {
    expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", set); },
                       needle);
  };

  // A config split across the shards: phase 'trials' in both.
  std::size_t split = 0;
  while (split < configs.size() && phase_of(shards[0], split) != "trials") ++split;
  ASSERT_LT(split, configs.size()) << "no config is split across the two shards";
  ASSERT_EQ(phase_of(shards[1], split), "trials");

  // A slot no shard recorded: drop shard 1's first slot of the split config.
  {
    const sim::Json& slots = *shards[0].find("configs")->elements()[split].find("slots");
    const auto dropped =
        static_cast<std::uint64_t>(slots.elements().front().find("slot")->as_number());
    auto bad = shards;
    bad[0] = with_entry(shards[0], split, [](sim::Json& entry) {
      sim::Json kept = sim::Json::array();
      const auto& all = entry.find("slots")->elements();
      for (std::size_t i = 1; i < all.size(); ++i) kept.push_back(all[i]);
      entry.set("slots", std::move(kept));
    });
    merge_fails_with(bad, "missing block slot " + std::to_string(dropped) + " of " +
                              std::to_string(sim::slot_count(configs[split].trials, 8)) +
                              " (coverage gap");
  }
  // Shards disagreeing on the split config's graph.
  {
    auto bad = shards;
    bad[1] = with_entry(shards[1], split, [](sim::Json& entry) { entry.set("graph", "other"); });
    merge_fails_with(bad, "graph metadata disagrees between shard 1 and shard 2");
  }
  // One shard holding the final result while the other recorded slots.
  {
    const auto finished = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
    const sim::Json done = finished.snapshot.find("configs")->elements()[split];
    auto bad = shards;
    bad[0] = with_entry(shards[0], split, [&](sim::Json& entry) { entry = done; });
    merge_fails_with(bad, "shard 1 has the final result but shard 2 also recorded block slots");
  }

  // The race: done in exactly one shard, pending in the other.
  const std::size_t race = 2;
  const std::size_t owner = phase_of(shards[0], race) == "done" ? 0 : 1;
  ASSERT_EQ(phase_of(shards[owner], race), "done");
  {
    auto bad = shards;
    bad[owner] = with_entry(shards[owner], race, [](sim::Json& entry) {
      sim::Json pending = sim::Json::object();
      pending.set("id", entry.find("id")->as_string());
      pending.set("phase", "pending");
      entry = std::move(pending);
    });
    merge_fails_with(bad, "no shard finished this race configuration (coverage gap)");
  }
  // A finished shard may not hold a race mid-way, in either pass.
  for (const std::string phase : {"screen", "refine"}) {
    const sim::Json mid = first_snapshot_in_phase(configs, race, phase);
    const sim::Json entry_mid = mid.find("configs")->elements()[race];
    auto bad = shards;
    bad[owner] = with_entry(shards[owner], race, [&](sim::Json& entry) { entry = entry_mid; });
    merge_fails_with(bad, "shard " + std::to_string(owner + 1) +
                              " left this config mid-race (phase '" + phase + "')");
  }
}

TEST(CampaignReports, ParallelRenderingEqualsTheSerialLoop) {
  const auto configs = snapshot_configs();
  const auto results = sim::run_campaign(configs, snapshot_options(2));
  std::vector<std::string> serial;
  for (const auto& r : results) serial.push_back(sim::campaign_report(r, "snap").dump(2));
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::vector<sim::Json> reports = sim::campaign_reports(results, "snap", threads);
    ASSERT_EQ(reports.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].dump(2), serial[i]) << "threads " << threads << ", report " << i;
    }
  }
  EXPECT_TRUE(sim::campaign_reports({}, "snap", 4).empty());
}

namespace {

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Names of the `*.tmp.*` files left in `dir`.
std::vector<std::string> temp_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) out.push_back(name);
  }
  return out;
}

}  // namespace

TEST(WriteFileAtomic, PartsFormWritesTheStringFormsBytes) {
  const std::string dir = fresh_dir("wfa_parts");
  // 0 parts, 1 part, empty parts among others, and more parts than one
  // writev call takes (IOV_MAX is 1024 on Linux).
  std::vector<std::vector<std::string>> docs;
  docs.push_back({});
  docs.push_back({"{\"a\": 1}\n"});
  docs.push_back({"", "x", "", "", "yz", ""});
  std::vector<std::string> many;
  for (int i = 0; i < 3000; ++i) many.push_back(i % 7 == 0 ? "" : std::to_string(i) + ",");
  docs.push_back(many);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    std::string whole;
    std::vector<std::string_view> parts;
    for (const std::string& p : docs[d]) {
      whole += p;
      parts.emplace_back(p);
    }
    const std::string a = dir + "/string_" + std::to_string(d);
    const std::string b = dir + "/parts_" + std::to_string(d);
    std::string error;
    ASSERT_TRUE(sim::write_file_atomic(a, whole, error)) << error;
    ASSERT_TRUE(sim::write_file_atomic(b, parts, error)) << error;
    EXPECT_EQ(slurp(a), whole) << "doc " << d;
    EXPECT_EQ(slurp(b), whole) << "doc " << d << " (" << parts.size() << " parts)";
  }
  EXPECT_TRUE(temp_files(dir).empty());
  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomic, OverwriteReplacesTheOldFile) {
  const std::string dir = fresh_dir("wfa_overwrite");
  const std::string path = dir + "/doc.json";
  std::string error;
  ASSERT_TRUE(sim::write_file_atomic(path, std::string(10000, 'a'), error)) << error;
  const std::vector<std::string_view> parts = {"short", "", " doc\n"};
  ASSERT_TRUE(sim::write_file_atomic(path, parts, error)) << error;
  EXPECT_EQ(slurp(path), "short doc\n");
  ASSERT_TRUE(sim::write_file_atomic(path, std::string("last"), error)) << error;
  EXPECT_EQ(slurp(path), "last");
  EXPECT_TRUE(temp_files(dir).empty());
  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomic, FailuresNameTheTempPathAndLeaveNoTempFile) {
  const std::string tmp_suffix = ".tmp." + std::to_string(::getpid());
  const std::vector<std::string_view> parts = {"some ", "bytes"};
  std::string error;

  // A directory that does not exist: the temp file cannot be created.
  const std::string missing = testing::TempDir() + "wfa_no_such_dir/doc.json";
  EXPECT_FALSE(sim::write_file_atomic(missing, parts, error));
  EXPECT_NE(error.find(missing + tmp_suffix), std::string::npos) << error;

  // The destination is a directory: the temp file is written in full, then
  // the rename fails, and the temp file goes with it.
  const std::string dir = fresh_dir("wfa_rename");
  const std::string blocked = dir + "/doc.json";
  std::filesystem::create_directories(blocked + "/child");
  EXPECT_FALSE(sim::write_file_atomic(blocked, parts, error));
  EXPECT_NE(error.find(blocked + tmp_suffix), std::string::npos) << error;
  EXPECT_TRUE(temp_files(dir).empty());

  // A directory without write permission (not enforced for root, which
  // skips this case).
  const std::string locked = fresh_dir("wfa_locked");
  ASSERT_EQ(::chmod(locked.c_str(), 0500), 0);
  if (::access(locked.c_str(), W_OK) != 0) {
    const std::string path = locked + "/doc.json";
    EXPECT_FALSE(sim::write_file_atomic(path, std::string("bytes"), error));
    EXPECT_NE(error.find(path + tmp_suffix), std::string::npos) << error;
    EXPECT_TRUE(temp_files(locked).empty());
  }
  ::chmod(locked.c_str(), 0700);
  std::filesystem::remove_all(locked);
  std::filesystem::remove_all(dir);
}

TEST(CampaignCheckpoint, PreviousSnapshotVersionIsRefusedNamingVersion) {
  // Version 1 snapshots stored a quantile sketch where summaries now store
  // their values; a run must refuse one at the header, naming the version,
  // not fail later on a missing key.
  const auto configs = snapshot_configs();
  auto options = snapshot_options(2);
  options.stop_after_blocks = 2;
  sim::Json old = sim::run_campaign_resumable(configs, options, "snap").snapshot;
  ASSERT_TRUE(old.is_object());
  old.set("version", sim::kSnapshotVersion - 1);
  const std::string want = "unsupported checkpoint version " +
                           std::to_string(sim::kSnapshotVersion - 1) + " (this build reads " +
                           std::to_string(sim::kSnapshotVersion) + ")";
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, snapshot_options(2), "snap", &old); },
      want);
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", {old}); }, want);
}

// --- Exact quantiles past the old sketch capacity -----------------------------

TEST(CampaignExactQuantiles, ThousandAsyncTrialsAreExactEverywhere) {
  // One async cell of 1,000 trials, four times the 256 items a sketch level
  // holds: its values are the serial run_trial loop in trial order, and its
  // median, p95 and T_{1/trials} are the sorted order statistics — at any
  // thread count and block size, after a resume, and after a shard merge.
  sim::CampaignConfig cfg;
  cfg.id = "exact";
  cfg.prebuilt = shared(graph::hypercube(6));
  cfg.engine = sim::EngineKind::kAsync;
  cfg.trials = 1000;
  cfg.seed = 77;
  const std::vector<sim::CampaignConfig> configs = {cfg};

  std::vector<double> serial;
  for (std::uint64_t t = 0; t < cfg.trials; ++t) {
    rng::Engine eng = rng::derive_stream(cfg.seed, t);
    serial.push_back(
        core::run_trial(cfg.engine, *cfg.prebuilt, cfg.source, eng, {}, {}).value);
  }
  std::vector<double> sorted = serial;
  std::sort(sorted.begin(), sorted.end());

  auto expect_exact = [&](const std::vector<sim::CampaignResult>& results,
                          const std::string& what) {
    ASSERT_EQ(results.size(), 1u) << what;
    const sim::CampaignResult& r = results.front();
    EXPECT_EQ(r.summary.values(), serial) << what;
    EXPECT_EQ(r.hp_q, 1.0 / 1000.0) << what;
    EXPECT_EQ(r.summary.median(), stats::quantile_sorted(sorted, 0.5)) << what;
    EXPECT_EQ(r.summary.quantile(0.95), stats::quantile_sorted(sorted, 0.95)) << what;
    EXPECT_EQ(r.summary.hp_time(r.hp_q), stats::quantile_sorted(sorted, 1.0 - r.hp_q)) << what;
  };
  // Through the snapshot text, as a checkpoint file or shard output is read.
  auto through_text = [](const sim::Json& doc) { return *sim::Json::parse(doc.dump()); };

  for (const std::uint64_t batch : {std::uint64_t{7}, std::uint64_t{32}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      sim::CampaignOptions options;
      options.threads = threads;
      options.block_size = batch;
      const std::string at =
          " at threads " + std::to_string(threads) + ", batch " + std::to_string(batch);
      expect_exact(sim::run_campaign(configs, options), "plain" + at);

      sim::CampaignOptions stop = options;
      stop.stop_after_blocks = 9;
      const auto stopped = sim::run_campaign_resumable(configs, stop, "exact");
      ASSERT_FALSE(stopped.complete) << at;
      const sim::Json mid = through_text(stopped.snapshot);
      const auto resumed = sim::run_campaign_resumable(configs, options, "exact", &mid);
      ASSERT_TRUE(resumed.complete) << at;
      expect_exact(resumed.results, "resumed" + at);

      std::vector<sim::Json> shards;
      for (std::uint32_t shard = 1; shard <= 2; ++shard) {
        sim::CampaignOptions part = options;
        part.shard_index = shard;
        part.shard_count = 2;
        shards.push_back(through_text(sim::run_campaign_resumable(configs, part, "exact").snapshot));
      }
      expect_exact(sim::merge_campaign_snapshots(configs, "exact", shards), "merged" + at);
    }
  }
}
