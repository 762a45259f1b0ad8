// Observability tests: the obs metrics registry, trace export, progress
// meter, and build provenance — and above all the telemetry contract of
// sim/campaign.hpp: telemetry is observational only. Reports are
// byte-identical with telemetry off or on at any thread count, the "exact"
// counters are bit-stable across thread counts, and a rendered trace is
// valid JSON whose block spans cover exactly the blocks the registry
// counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "support/campaign_fixtures.hpp"

using namespace rumor;

namespace {

/// A small mixed campaign: both engines, a race cell, and a weighted cell,
/// so every counter (sync rounds, async events, screen/refine trials) is
/// exercised.
std::vector<sim::CampaignConfig> obs_configs(std::uint64_t trials) {
  static const auto kHypercube = shared(graph::hypercube(5));
  static const auto kStar = shared(graph::star(64));
  std::vector<sim::CampaignConfig> configs;
  std::uint64_t seed = 900;
  for (const auto& g : {kHypercube, kStar}) {
    for (const sim::EngineKind engine : {sim::EngineKind::kSync, sim::EngineKind::kAsync}) {
      sim::CampaignConfig cfg;
      cfg.id = g->name() + std::string("_") + sim::engine_name(engine);
      cfg.prebuilt = g;
      cfg.engine = engine;
      cfg.trials = trials;
      cfg.seed = ++seed;
      configs.push_back(std::move(cfg));
    }
  }
  sim::CampaignConfig race;
  race.id = "star_race";
  race.prebuilt = kStar;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 4;
  race.race.final_trials = trials;
  race.race.max_candidates = 8;
  race.trials = trials;
  race.seed = 41;
  configs.push_back(std::move(race));
  return configs;
}

/// The exact-counter fields of a snapshot, per the determinism contract of
/// obs/metrics.hpp (durations and depth samples excluded by design).
std::vector<std::uint64_t> exact_fingerprint(const obs::MetricsSnapshot& s) {
  std::vector<std::uint64_t> out = {s.totals.blocks_executed, s.totals.trials_simulated,
                                    s.totals.sync_rounds,     s.totals.async_events,
                                    s.totals.graph_builds,    s.totals.graph_frees,
                                    s.blocks_scheduled};
  for (const auto& c : s.per_config) {
    out.push_back(c.blocks);
    out.push_back(c.trials);
  }
  return out;
}

obs::MetricsSnapshot run_with_telemetry(const std::vector<sim::CampaignConfig>& configs,
                                        unsigned threads, bool trace = false) {
  obs::Telemetry::Options topt;
  topt.trace = trace;
  obs::Telemetry tel(topt);
  sim::CampaignOptions options;
  options.threads = threads;
  options.block_size = 8;
  options.telemetry = &tel;
  (void)sim::run_campaign(configs, options);
  return tel.snapshot();
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogram, BucketsByPowerOfTwo) {
  obs::Histogram h;
  h.add(0);  // bucket 0: zeros
  h.add(1);  // bucket 1: [1, 2)
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  h.add(7);
  h.add(1u << 20);  // bucket 21
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 2u);
  EXPECT_EQ(h.buckets[21], 1u);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 7 + (1u << 20));
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1u << 20);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum) / 7.0);
}

TEST(ObsHistogram, EmptyAndMerge) {
  obs::Histogram empty;
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  obs::Histogram a;
  a.add(5);
  a.add(100);
  obs::Histogram b;
  b.add(2);
  a.merge(b);
  a.merge(empty);  // merging an empty histogram must not disturb min
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 107u);
  EXPECT_EQ(a.min, 2u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_EQ(a.buckets[2], 1u);
  EXPECT_EQ(a.buckets[3], 1u);
  EXPECT_EQ(a.buckets[7], 1u);  // 100 in [64, 128)
}

// --- Build provenance --------------------------------------------------------

TEST(ObsBuildInfo, FieldsArePopulated) {
  const obs::BuildInfo& info = obs::build_info();
  for (const char* field : {info.git_sha, info.compiler, info.compiler_version,
                            info.build_type, info.flags}) {
    ASSERT_NE(field, nullptr);
    EXPECT_NE(field[0], '\0');
  }
  const std::string line = obs::build_info_line("unit_test");
  EXPECT_EQ(line.rfind("unit_test ", 0), 0u) << line;
  EXPECT_NE(line.find(info.compiler), std::string::npos) << line;
}

TEST(ObsBuildInfo, StampedIntoEveryReport) {
  const auto results = sim::run_campaign(obs_configs(4), {});
  const sim::Json report = sim::campaign_report(results[0], "unit");
  const sim::Json* build = report.find("build_info");
  ASSERT_NE(build, nullptr);
  for (const char* key :
       {"git_sha", "compiler", "compiler_version", "build_type", "flags"}) {
    const sim::Json* v = build->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
    EXPECT_FALSE(v->as_string().empty()) << key;
  }
  // build_info_json() (what rumor_bench stamps) matches the report's block.
  EXPECT_EQ(build->dump(), obs::build_info_json().dump());
}

// --- Progress meter ----------------------------------------------------------

TEST(ObsProgress, HeartbeatAndFinalLineOnOwnStream) {
  std::ostringstream out;
  obs::ProgressMeter meter(out, std::chrono::milliseconds(1));
  meter.start("unit");
  meter.on_scheduled(3);
  meter.set_phase("trials");
  meter.on_done();
  meter.on_done();
  meter.on_done();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  meter.stop();
  meter.stop();  // idempotent
  const std::string text = out.str();
  EXPECT_NE(text.find("progress [unit]"), std::string::npos) << text;
  EXPECT_NE(text.find("3/3 blocks"), std::string::npos) << text;
  EXPECT_NE(text.find("done"), std::string::npos) << text;
  // Every line is a complete progress line — no interleaved fragments.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("progress [unit]", 0), 0u) << line;
  }
}

// --- Telemetry counters ------------------------------------------------------

TEST(ObsTelemetry, ExactCountersBitStableAcrossThreadCounts) {
  const auto configs = obs_configs(16);
  const auto serial = run_with_telemetry(configs, 1);
  const auto two = run_with_telemetry(configs, 2);
  const auto eight = run_with_telemetry(configs, 8);

  EXPECT_EQ(exact_fingerprint(serial), exact_fingerprint(two));
  EXPECT_EQ(exact_fingerprint(serial), exact_fingerprint(eight));

  // Shards merge to the totals they claim to.
  obs::WorkerMetrics remerged;
  for (const auto& w : eight.workers) remerged.merge(w);
  EXPECT_EQ(remerged.blocks_executed, eight.totals.blocks_executed);
  EXPECT_EQ(remerged.trials_simulated, eight.totals.trials_simulated);
  EXPECT_EQ(remerged.sync_rounds, eight.totals.sync_rounds);
  EXPECT_EQ(remerged.async_events, eight.totals.async_events);

  // Every scheduled block ran, every pop was depth-sampled, and the fixed
  // cells' trials are all attributed (the race cell adds screen trials on
  // top, so totals are >= the spec'd trial counts).
  EXPECT_EQ(serial.blocks_scheduled, serial.totals.blocks_executed);
  EXPECT_EQ(eight.queue_depth.count, eight.totals.blocks_executed);
  ASSERT_EQ(serial.per_config.size(), configs.size());
  ASSERT_EQ(serial.config_ids.size(), configs.size());
  std::uint64_t spec_trials = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(serial.config_ids[i], configs[i].id);
    if (configs[i].source_policy == sim::SourcePolicy::kFixed) {
      EXPECT_EQ(serial.per_config[i].trials, configs[i].trials) << configs[i].id;
    } else {
      EXPECT_GT(serial.per_config[i].trials, configs[i].trials) << configs[i].id;
    }
    spec_trials += configs[i].trials;
  }
  EXPECT_GT(serial.totals.trials_simulated, spec_trials);
  EXPECT_GT(serial.totals.sync_rounds, 0u);
  EXPECT_GT(serial.totals.async_events, 0u);
  EXPECT_EQ(serial.totals.graph_builds, serial.totals.graph_frees);
  EXPECT_GT(serial.wall_ns, 0u);
}

// --- The observational contract ----------------------------------------------

TEST(ObsTelemetry, ReportsByteIdenticalWithTelemetryOnOrOff) {
  const auto configs = obs_configs(12);
  std::vector<std::string> baseline;
  {
    sim::CampaignOptions options;
    options.threads = 1;
    for (const auto& r : sim::run_campaign(configs, options)) {
      baseline.push_back(sim::campaign_report(r, "unit").dump(2));
    }
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::Telemetry::Options topt;
    topt.trace = true;
    topt.progress = true;
    topt.progress_interval = std::chrono::milliseconds(1);
    std::ostringstream progress_out;
    topt.progress_stream = &progress_out;
    obs::Telemetry tel(topt);
    sim::CampaignOptions options;
    options.threads = threads;
    options.telemetry = &tel;
    const auto results = sim::run_campaign(configs, options);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(sim::campaign_report(results[i], "unit").dump(2), baseline[i])
          << configs[i].id << " threads=" << threads;
    }
  }
}

// --- Trace export ------------------------------------------------------------

namespace {

struct ParsedSpan {
  std::string name;
  double ts = 0.0;
  double end = 0.0;
  std::int64_t tid = 0;
  std::string config;
};

}  // namespace

TEST(ObsTrace, ValidJsonWithNestedMonotoneSpansCoveringEveryBlock) {
  const auto configs = obs_configs(16);
  obs::Telemetry::Options topt;
  topt.trace = true;
  obs::Telemetry tel(topt);
  sim::CampaignOptions options;
  options.threads = 4;
  options.block_size = 8;
  options.telemetry = &tel;
  (void)sim::run_campaign(configs, options);
  const auto snapshot = tel.snapshot();

  const auto doc = sim::Json::parse(tel.render_trace());
  ASSERT_TRUE(doc.has_value());
  const sim::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::vector<ParsedSpan> spans;
  for (const auto& ev : events->elements()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "M") continue;
    ASSERT_EQ(ph, "X");
    ParsedSpan s;
    s.name = ev.find("name")->as_string();
    s.ts = ev.find("ts")->as_number();
    const double dur = ev.find("dur")->as_number();
    ASSERT_GE(s.ts, 0.0) << s.name;
    ASSERT_GE(dur, 0.0) << s.name;
    s.end = s.ts + dur;
    s.tid = static_cast<std::int64_t>(ev.find("tid")->as_number());
    const sim::Json* args = ev.find("args");
    ASSERT_NE(args, nullptr) << s.name;
    if (const sim::Json* config = args->find("config")) s.config = config->as_string();
    spans.push_back(std::move(s));
  }

  // Coverage: one block:* span per executed block, counted per config
  // exactly as the metrics registry counted them.
  std::vector<std::uint64_t> span_blocks(configs.size(), 0);
  std::uint64_t total_block_spans = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("block:", 0) != 0) continue;
    ++total_block_spans;
    const auto it = std::find(snapshot.config_ids.begin(), snapshot.config_ids.end(), s.config);
    ASSERT_NE(it, snapshot.config_ids.end()) << s.config;
    ++span_blocks[static_cast<std::size_t>(it - snapshot.config_ids.begin())];
  }
  EXPECT_EQ(total_block_spans, snapshot.totals.blocks_executed);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(span_blocks[i], snapshot.per_config[i].blocks) << snapshot.config_ids[i];
  }

  // Geometry: per worker, block spans are disjoint and time-ordered; every
  // non-block span nests inside a block span on its own lane (workers run
  // one block at a time and record graph builds/merges from inside it).
  std::map<std::int64_t, std::vector<const ParsedSpan*>> blocks_by_tid;
  for (const auto& s : spans) {
    if (s.name.rfind("block:", 0) == 0) blocks_by_tid[s.tid].push_back(&s);
  }
  for (auto& [tid, lane] : blocks_by_tid) {
    std::sort(lane.begin(), lane.end(),
              [](const ParsedSpan* a, const ParsedSpan* b) { return a->ts < b->ts; });
    for (std::size_t i = 1; i < lane.size(); ++i) {
      EXPECT_GE(lane[i]->ts, lane[i - 1]->end) << "worker " << tid;
    }
  }
  for (const auto& s : spans) {
    if (s.name.rfind("block:", 0) == 0 || s.name.rfind("checkpoint:", 0) == 0) continue;
    bool nested = false;
    for (const ParsedSpan* parent : blocks_by_tid[s.tid]) {
      if (parent->ts <= s.ts && s.end <= parent->end) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << s.name << " on tid " << s.tid;
  }

  // The embedded registry matches the live snapshot on the exact counters.
  const sim::Json* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(metrics->find("blocks_scheduled")->as_number()),
            snapshot.blocks_scheduled);
  const sim::Json* totals = metrics->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("blocks_executed")->as_number()),
            snapshot.totals.blocks_executed);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("trials_simulated")->as_number()),
            snapshot.totals.trials_simulated);
  const sim::Json* per_config = metrics->find("per_config");
  ASSERT_NE(per_config, nullptr);
  ASSERT_EQ(per_config->size(), configs.size());
}

TEST(ObsTrace, OtherDataBlockBytesArePinned) {
  // A trace with no spans is the frame and the otherData block, as the
  // renderer has always written them: schema_version, the campaign name
  // escaped, and build_info's five fields in order.
  const obs::BuildInfo& bi = obs::build_info();
  for (const char* field : {bi.git_sha, bi.compiler, bi.compiler_version, bi.build_type, bi.flags}) {
    ASSERT_TRUE(std::all_of(field, field + std::char_traits<char>::length(field),
                            [](char c) { return c >= 0x20 && c != '"' && c != '\\'; }))
        << "the expected text below splices " << field << " verbatim";
  }
  obs::TraceRenderInput input;
  input.campaign = "grid \"q\"\t";
  EXPECT_EQ(obs::render_chrome_trace(input),
            std::string("{\"traceEvents\":[\n\n],\n\"displayTimeUnit\":\"ms\",\n") +
                "\"otherData\":{\"schema_version\":1,\"campaign\":\"grid \\\"q\\\"\\t\"," +
                "\"build_info\":{\"git_sha\":\"" + bi.git_sha + "\",\"compiler\":\"" +
                bi.compiler + "\",\"compiler_version\":\"" + bi.compiler_version +
                "\",\"build_type\":\"" + bi.build_type + "\",\"flags\":\"" + bi.flags +
                "\"}}\n}\n");
}

TEST(ObsTrace, WriteTraceReportsIoFailure) {
  obs::Telemetry::Options topt;
  topt.trace = true;
  obs::Telemetry tel(topt);
  tel.begin({"cfg"}, 1, "unit");
  tel.end();
  std::string error;
  EXPECT_FALSE(tel.write_trace("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
}
