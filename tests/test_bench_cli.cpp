// Smoke tests for the rumor_bench experiment registry: the driver binary
// must list all fifteen experiments (the twelve paper experiments plus
// the e16/e17 dynamics and e18 empirical-graph extensions), run one by
// name with CLI overrides, and emit JSON that parses and carries the
// documented keys. The graph_pack and ks_smoke tools' argument checks run
// here too.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace sim = rumor::sim;

namespace {

#ifndef RUMOR_BENCH_BINARY
#error "RUMOR_BENCH_BINARY must point at the rumor_bench executable"
#endif
#ifndef RUMOR_GRAPH_PACK_BINARY
#error "RUMOR_GRAPH_PACK_BINARY must point at the graph_pack executable"
#endif
#ifndef RUMOR_KS_SMOKE_BINARY
#error "RUMOR_KS_SMOKE_BINARY must point at the ks_smoke executable"
#endif

/// Runs a command line and captures its stdout. `exit_code` receives the
/// program's actual exit status (pclose's raw wait status decoded), so
/// tests can assert the documented codes 0/1/2/3.
std::string run_tool(const std::string& binary, const std::string& args,
                     int* exit_code = nullptr) {
  const std::string cmd = binary + " " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch " << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  const int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return out;
}

std::string run_bench(const std::string& args, int* exit_code = nullptr) {
  return run_tool(RUMOR_BENCH_BINARY, args, exit_code);
}

}  // namespace

// --- Registry smoke tests via the real binary --------------------------------

TEST(BenchCli, ListNamesAllFifteenExperiments) {
  int status = 0;
  const std::string out = run_bench("--list", &status);
  EXPECT_EQ(status, 0);
  for (const char* name :
       {"e1_overview", "e2_theorem1", "e3_star", "e4_theorem2", "e5_regular", "e6_blocks",
        "e7_chain", "e8_push", "e9_micro", "e10_expansion", "e11_faults", "e13_sources",
        "e16_churn", "e17_weighted", "e18_empirical"}) {
    EXPECT_NE(out.find(name), std::string::npos) << "missing " << name << " in:\n" << out;
  }
  // Retired experiments stay unlisted.
  for (const char* gone : {"e12_discretization", "e14_averaging", "e15_quasirandom"}) {
    EXPECT_EQ(out.find(gone), std::string::npos) << gone << " still listed in:\n" << out;
  }
}

TEST(BenchCli, ListJsonParsesWithTitles) {
  const std::string out = run_bench("--list --json");
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->size(), 15u);
  for (const auto& entry : parsed->elements()) {
    ASSERT_NE(entry.find("experiment"), nullptr);
    ASSERT_NE(entry.find("title"), nullptr);
    ASSERT_NE(entry.find("claim"), nullptr);
  }
}

TEST(BenchCli, TinyExperimentEmitsExpectedJson) {
  int status = 0;
  const std::string out = run_bench("e3_star --trials 8 --seed 7 --json", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << "unparseable JSON:\n" << out;
  ASSERT_TRUE(parsed->is_object());

  const sim::Json* name = parsed->find("experiment");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), "e3_star");

  const sim::Json* params = parsed->find("params");
  ASSERT_NE(params, nullptr);
  ASSERT_NE(params->find("trials"), nullptr);
  EXPECT_EQ(params->find("trials")->as_number(), 8.0);
  ASSERT_NE(params->find("seed"), nullptr);
  EXPECT_EQ(params->find("seed")->as_number(), 7.0);

  const sim::Json* rows = parsed->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_GT(rows->size(), 0u);
  for (const auto& row : rows->elements()) {
    // Per-statistic values: every row carries the measured columns.
    for (const char* key : {"n", "sync_mean", "sync_max", "async_mean", "async_p99"}) {
      const sim::Json* v = row.find(key);
      ASSERT_NE(v, nullptr) << "row missing " << key;
      EXPECT_TRUE(v->is_number());
    }
    // The paper's star-graph law, visible even at 8 trials: sync <= 2.
    EXPECT_LE(row.find("sync_max")->as_number(), 2.0);
  }

  const sim::Json* stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->find("log_fit_slope"), nullptr);
}

TEST(BenchCli, UnknownExperimentFails) {
  for (const std::string name : {"no_such_experiment", "e12_discretization", "e14_averaging"}) {
    int status = 0;
    const std::string out = run_bench(name + " --json 2>&1", &status);
    EXPECT_EQ(status, 2) << name;
    EXPECT_NE(out.find("unknown experiment '" + name + "'"), std::string::npos) << out;
  }
}

TEST(BenchCli, ListShowsClaimAndDefaults) {
  const std::string human = run_bench("--list");
  EXPECT_NE(human.find("claim: "), std::string::npos);
  EXPECT_NE(human.find("defaults: "), std::string::npos);

  const auto parsed = sim::Json::parse(run_bench("--list --json"));
  ASSERT_TRUE(parsed.has_value());
  for (const auto& entry : parsed->elements()) {
    const sim::Json* defaults = entry.find("defaults");
    ASSERT_NE(defaults, nullptr);
    EXPECT_FALSE(defaults->as_string().empty())
        << entry.find("experiment")->as_string() << " has no defaults line";
  }
}

TEST(BenchCli, PaperReportNamesEveryListedExperiment) {
  // results/paper.json (written by tools/paper_report.py) holds one report
  // per listed experiment but the timing-only e9_micro, in list order, with
  // the build-describing build_info and params.threads removed. e18 sizes
  // its stores by payload_bytes, not by the build-dependent file size
  // (store_bytes, whose provenance names the writer's build). Registering or
  // retiring an experiment without regenerating the file fails here on every
  // compiler; the byte check itself runs on GCC builds only.
  std::ifstream file(std::string(RUMOR_SOURCE_DIR) + "/results/paper.json");
  std::ostringstream text;
  text << file.rdbuf();
  const auto paper = sim::Json::parse(text.str());
  ASSERT_TRUE(paper.has_value() && paper->is_array()) << "results/paper.json is not a JSON array";
  const auto listed = sim::Json::parse(run_bench("--list --json"));
  ASSERT_TRUE(listed.has_value());

  std::vector<std::string> expected;
  for (const auto& entry : listed->elements()) {
    const std::string name = entry.find("experiment")->as_string();
    if (name != "e9_micro") expected.push_back(name);
  }
  std::vector<std::string> covered;
  for (const auto& report : paper->elements()) {
    const std::string name = report.find("experiment")->as_string();
    covered.push_back(name);
    EXPECT_EQ(report.find("build_info"), nullptr) << name << " carries build_info";
    EXPECT_EQ(report.find("params")->find("threads"), nullptr) << name << " carries params.threads";
    for (const auto& row : report.find("rows")->elements()) {
      EXPECT_EQ(row.find("store_bytes"), nullptr) << name << " carries store_bytes";
      if (name == "e18_empirical") {
        EXPECT_NE(row.find("payload_bytes"), nullptr) << name << " lacks payload_bytes";
      }
    }
  }
  EXPECT_EQ(covered, expected) << "regenerate results/paper.json with tools/paper_report.py";
}

// --- --out: atomic report files ----------------------------------------------

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

TEST(BenchCli, OutWritesCompleteReportFile) {
  const std::string path = testing::TempDir() + "bench_cli_out.json";
  std::remove(path.c_str());
  int status = 0;
  const std::string stdout_text =
      run_bench("e3_star --trials 8 --seed 7 --json --out " + path, &status);
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(stdout_text.empty()) << "--out must divert the report off stdout";

  const auto parsed = sim::Json::parse(read_file(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("experiment")->as_string(), "e3_star");
  // The (pid-suffixed) temp file of the atomic write must not linger.
  for (const auto& entry : std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_EQ(entry.path().filename().string().rfind("bench_cli_out.json.tmp", 0),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(BenchCli, OutToUnwritablePathFails) {
  int status = 0;
  run_bench("e3_star --trials 8 --json --out /no_such_dir/report.json 2>/dev/null", &status);
  EXPECT_NE(status, 0);
}

// --- --campaign: the spec-driven sweep front end ------------------------------

namespace {

std::string write_spec(const std::string& name, const std::string& contents) {
  const std::string path = testing::TempDir() + name;
  std::ofstream file(path, std::ios::trunc);
  file << contents;
  return path;
}

}  // namespace

TEST(BenchCli, CampaignRunsSpecAndEmitsPerConfigReports) {
  const std::string spec = write_spec("bench_cli_campaign.json", R"({
    "name": "clitest",
    "defaults": {"trials": 8, "seed": 5},
    "configs": [
      {"graph": "star", "n": [32, 64], "engine": ["sync", "async"]},
      {"graph": "hypercube", "n": 64}
    ]})");
  const std::string out = testing::TempDir() + "bench_cli_campaign_out.json";
  int status = 0;
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --out " + out, &status);
  EXPECT_EQ(status, 0);

  const auto parsed = sim::Json::parse(read_file(out));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->size(), 5u);  // 2 sizes x 2 engines + 1 hypercube
  for (const auto& report : parsed->elements()) {
    ASSERT_NE(report.find("experiment"), nullptr);
    EXPECT_EQ(report.find("experiment")->as_string().rfind("clitest/", 0), 0u);
    ASSERT_NE(report.find("rows"), nullptr);
    ASSERT_EQ(report.find("rows")->size(), 1u);
    const sim::Json& row = report.find("rows")->elements().front();
    EXPECT_EQ(row.find("trials")->as_number(), 8.0);
    EXPECT_GT(row.find("mean")->as_number(), 0.0);
  }
  std::remove(spec.c_str());
  std::remove(out.c_str());
}

TEST(BenchCli, CampaignHonorsTrialsAndSeedOverrides) {
  const std::string spec = write_spec("bench_cli_override.json", R"({
    "defaults": {"trials": 64, "seed": 5},
    "configs": [{"graph": "star", "n": 32}]})");
  int status = 0;
  const std::string out = run_bench("--campaign " + spec + " --trials 4 --seed 11 --json", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  EXPECT_EQ(parsed->find("params")->find("trials")->as_number(), 4.0);
  EXPECT_EQ(parsed->find("params")->find("seed")->as_number(), 11.0);
  std::remove(spec.c_str());
}

TEST(BenchCli, CampaignRaceCellReportsWorstSource) {
  // The CI smoke path: a `source: "race"` cell must run through the real
  // binary, report the race outcome in stats, and mark its params.
  const std::string spec = write_spec("bench_cli_race.json", R"({
    "name": "racetest",
    "configs": [
      {"graph": "star", "n": 48, "source": "race", "trials": 8,
       "screen_trials": 4, "finalists": 2, "max_candidates": 8, "seed": 3}
    ]})");
  int status = 0;
  const std::string out = run_bench("--campaign " + spec + " --json --threads 2", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  EXPECT_EQ(parsed->find("experiment")->as_string(), "racetest/star_n48_sync_push-pull_race");
  EXPECT_EQ(parsed->find("params")->find("source_policy")->as_string(), "race");
  const sim::Json* stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  for (const char* key : {"worst_source", "best_source", "best_mean"}) {
    ASSERT_NE(stats->find(key), nullptr) << key;
  }
  EXPECT_LT(stats->find("worst_source")->as_number(), 48.0);
  std::remove(spec.c_str());
}

TEST(BenchCli, CampaignDynamicsCellCarriesParams) {
  // A churn+weighted cell through the real binary: the report must mark
  // its params with the dynamics block and stay machine-parseable.
  const std::string spec = write_spec("bench_cli_dynamics.json", R"({
    "name": "dyntest",
    "configs": [
      {"graph": "hypercube", "n": 64, "trials": 8, "seed": 3,
       "dynamics": {"churn": "markov", "birth": 0.2, "death": 0.2,
                    "weights": "heavy_tailed", "weight_alpha": 1.5}}
    ]})");
  int status = 0;
  const std::string out = run_bench("--campaign " + spec + " --json --threads 2", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  EXPECT_EQ(parsed->find("experiment")->as_string(),
            "dyntest/hypercube_n64_sync_push-pull_markov_w-heavy_tailed");
  const sim::Json* dyn = parsed->find("params")->find("dynamics");
  ASSERT_NE(dyn, nullptr);
  EXPECT_EQ(dyn->find("churn")->as_string(), "markov");
  EXPECT_EQ(dyn->find("weights")->as_string(), "heavy_tailed");
  EXPECT_GT(parsed->find("rows")->elements().front().find("mean")->as_number(), 0.0);
  std::remove(spec.c_str());
}

TEST(BenchCli, CampaignRejectsBadSpecs) {
  int status = 0;
  run_bench("--campaign /no/such/spec.json 2>/dev/null", &status);
  EXPECT_NE(status, 0);

  const std::string malformed = write_spec("bench_cli_malformed.json", "{ not json");
  run_bench("--campaign " + malformed + " 2>/dev/null", &status);
  EXPECT_NE(status, 0);

  const std::string bad_key = write_spec("bench_cli_badkey.json",
                                         R"({"configs": [{"graph": "star", "n": 32, "trails": 2}]})");
  run_bench("--campaign " + bad_key + " 2>/dev/null", &status);
  EXPECT_NE(status, 0);

  // --curves applies the same config rules as the spec parser: a batch cell
  // has no per-trial contact structure, so this is a bad spec (exit 2).
  const std::string batch = write_spec("bench_cli_curves_batch.json", R"({"configs": [
      {"graph": "star", "n": 32, "trials": 4, "engine": "batch_sync"}]})");
  const std::string err = run_bench("--campaign " + batch + " --curves 2>&1 >/dev/null", &status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(err.find("configs[0]"), std::string::npos) << err;

  // An engine name outside the four engine kinds is a bad spec that lists
  // the accepted names.
  const std::string engine = write_spec("bench_cli_engine.json", R"({"configs": [
      {"graph": "star", "n": 32, "trials": 4, "engine": "quasirandom"}]})");
  const std::string engine_err =
      run_bench("--campaign " + engine + " 2>&1 >/dev/null", &status);
  EXPECT_EQ(status, 2);
  EXPECT_NE(engine_err.find("sync/async/aux/batch_sync (got 'quasirandom')"), std::string::npos)
      << engine_err;

  // A trial count at the 2^53 cap is valid; --scale 2 takes it past the
  // cap, which is refused naming the config and the product before any
  // graph is built (it used to die allocating the trial blocks).
  const std::string scaled = write_spec("bench_cli_scale_cap.json", R"({"configs": [
      {"id": "big", "graph": "star", "n": 32, "trials": 9007199254740992}]})");
  const std::string scale_err =
      run_bench("--campaign " + scaled + " --scale 2 2>&1 >/dev/null", &status);
  EXPECT_EQ(status, 2) << scale_err;
  EXPECT_NE(scale_err.find("config 'big': trials x --scale = 18014398509481984"),
            std::string::npos)
      << scale_err;
  std::remove(malformed.c_str());
  std::remove(bad_key.c_str());
  std::remove(batch.c_str());
  std::remove(engine.c_str());
  std::remove(scaled.c_str());
}

TEST(BenchCli, CampaignConflictsWithExperimentSelection) {
  const std::string spec = write_spec("bench_cli_conflict.json",
                                      R"({"configs": [{"graph": "star", "n": 32}]})");
  int status = 0;
  run_bench("--campaign " + spec + " e3_star 2>/dev/null", &status);
  EXPECT_NE(status, 0);
  std::remove(spec.c_str());
}

TEST(BenchCli, ThreadsWiderThanItsFieldIsBadInput) {
  // 2^32 + 1 is below the 2^53 cap of every count flag but does not fit
  // the unsigned thread count; 1025 fits it but is past the 1024 bound on
  // the OS threads one run may start. Neither run starts a thread.
  for (const char* threads : {"4294967297", "1025"}) {
    int status = 0;
    const std::string err = run_bench(
        std::string("e3_star --trials 8 --threads ") + threads + " 2>&1 >/dev/null", &status);
    EXPECT_EQ(status, 2) << threads;
    EXPECT_NE(err.find(std::string("--threads: ") + threads + " (must be <= 1024)"),
              std::string::npos)
        << err;
  }
}

TEST(GraphPackCli, RefusesMalformedNumbersNamingTheFlag) {
  // Every numeric flag is read whole and within a campaign spec's ranges;
  // a refusal exits 2, names the flag, and writes no store.
  const std::string out = testing::TempDir() + "graph_pack_refused.rgs";
  const std::pair<const char*, const char*> cases[] = {
      {"--family complete --n 12abc", "--n: 12abc"},
      {"--family star --n -5", "--n: -5"},
      {"--family random_regular --n 64 --degree 4294967302", "--degree: 4294967302"},
      {"--family erdos_renyi --n 64 --p 0.5xyz", "--p: 0.5xyz"},
      {"--family erdos_renyi --n 64 --p 1.5", "--p: 1.5"},
      {"--family chung_lu --n 64 --beta inf", "--beta: inf"},
      {"--family erdos_renyi --n 64 --p 0.2 --graph-seed 9007199254740993",
       "--graph-seed: 9007199254740993"},
  };
  for (const auto& [args, flag_and_value] : cases) {
    std::remove(out.c_str());
    int status = 0;
    const std::string err = run_tool(RUMOR_GRAPH_PACK_BINARY,
                                     std::string(args) + " --out " + out + " 2>&1", &status);
    EXPECT_EQ(status, 2) << args << "\n" << err;
    EXPECT_NE(err.find(std::string("bad value for ") + flag_and_value), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(out)) << args;
  }
  // graph_seed keeps the whole range a spec gives it.
  int status = 0;
  run_tool(RUMOR_GRAPH_PACK_BINARY,
           "--family erdos_renyi --n 64 --p 0.2 --graph-seed 9007199254740992 --out " + out,
           &status);
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(std::filesystem::exists(out));
  std::remove(out.c_str());
}

TEST(KsSmokeCli, RefusesMalformedArgumentsNamingTheArgument) {
  // Both arguments are read whole and range-checked before any cell runs:
  // trials per side in 1..100000, alpha in (0, 1).
  const std::pair<const char*, const char*> cases[] = {
      {"8x", "trials-per-side: 8x"},
      {"-5", "trials-per-side: -5"},
      {"0", "trials-per-side: 0"},
      {"100001", "trials-per-side: 100001"},
      {"8 abc", "alpha: abc"},
      {"8 -1", "alpha: -1"},
      {"8 0", "alpha: 0"},
      {"8 1", "alpha: 1"},
      {"8 1e-3x", "alpha: 1e-3x"},
      {"8 nan", "alpha: nan"},
  };
  for (const auto& [args, name_and_value] : cases) {
    int status = 0;
    const std::string out = run_tool(RUMOR_KS_SMOKE_BINARY, std::string(args) + " 2>&1", &status);
    EXPECT_EQ(status, 2) << args << "\n" << out;
    EXPECT_NE(out.find(std::string("bad value for ") + name_and_value), std::string::npos) << out;
    EXPECT_EQ(out.find("| graph |"), std::string::npos) << args << " ran the sweep";
  }
  int status = 0;
  const std::string out = run_tool(RUMOR_KS_SMOKE_BINARY, "16 1e-3", &status);
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("n=16 per side, alpha=0.001"), std::string::npos) << out;
}

TEST(BenchCli, CampaignOnCorruptStoreFailsNamingStoreAndByte) {
  // offsets[1] of a packed store set far past the arc count: the campaign
  // refuses the store on open (exit 1) instead of reading off the mapping.
  const std::string store = testing::TempDir() + "bench_cli_corrupt.rgs";
  int status = 0;
  run_tool(RUMOR_GRAPH_PACK_BINARY,
           "--family random_regular --n 600 --degree 6 --out " + store + " 2>&1", &status);
  ASSERT_EQ(status, 0);
  {
    std::fstream f(store, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(68);  // offsets[1]
    const std::uint32_t bogus = 0x7ffffff0;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  }
  const std::string spec = write_spec("bench_cli_corrupt.json", R"({
    "defaults": {"trials": 4, "seed": 5},
    "configs": [{"graph": {"kind": "file", "path": ")" + store + R"("}}]})");
  const std::string err = run_bench("--campaign " + spec + " --json 2>&1 >/dev/null", &status);
  EXPECT_EQ(status, 1) << err;
  EXPECT_NE(err.find(store), std::string::npos) << err;
  EXPECT_NE(err.find("offsets[1] at byte 68"), std::string::npos) << err;
  std::remove(spec.c_str());
  std::remove(store.c_str());
}

// --- Checkpoints, shards, and merge ------------------------------------------

namespace {

/// One campaign exercising all three block kinds (plain trials across two
/// engines, a dynamics cell, and a worst-source race), small enough that a
/// full run takes well under a second. --batch 4 at 12 trials gives every
/// plain config three blocks, so --stop-after-blocks interrupts mid-config.
std::string write_checkpoint_spec(const std::string& name) {
  return write_spec(name, R"({
    "name": "cksuite",
    "defaults": {"trials": 12, "seed": 7},
    "configs": [
      {"graph": "star", "n": [32, 48], "engine": ["sync", "async"]},
      {"graph": "hypercube", "n": 64,
       "dynamics": {"churn": "markov", "birth": 0.2, "death": 0.2}},
      {"graph": "star", "n": 40, "source": "race", "trials": 8, "seed": 3,
       "screen_trials": 4, "finalists": 2, "max_candidates": 6}
    ]})");
}

void expect_no_temp_litter(const std::string& stem) {
  for (const auto& entry : std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_EQ(entry.path().filename().string().rfind(stem + ".tmp", 0), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

}  // namespace

TEST(BenchCliCheckpoint, KillAndResumeMatchesStraightRunByteForByte) {
  const std::string spec = write_checkpoint_spec("bench_cli_ck_spec.json");
  const std::string plain_out = testing::TempDir() + "bench_cli_ck_plain.json";
  const std::string resumed_out = testing::TempDir() + "bench_cli_ck_resumed.json";
  const std::string ck = testing::TempDir() + "bench_cli_ck_state.json";
  for (const auto& p : {plain_out, resumed_out, ck}) std::remove(p.c_str());

  int status = 0;
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --out " + plain_out, &status);
  ASSERT_EQ(status, 0);

  // First leg: stop after 3 blocks. Exit 3 (not an error, not success), a
  // pointer to the checkpoint on stderr, and no report written.
  const std::string stopped = run_bench("--campaign " + spec +
                                            " --json --threads 2 --batch 4 --checkpoint " + ck +
                                            " --stop-after-blocks 3 --out " + resumed_out +
                                            " 2>&1",
                                        &status);
  ASSERT_EQ(status, 3) << stopped;
  EXPECT_NE(stopped.find("progress saved to"), std::string::npos) << stopped;
  EXPECT_NE(stopped.find("--resume"), std::string::npos) << stopped;
  ASSERT_TRUE(std::filesystem::exists(ck));
  EXPECT_FALSE(std::filesystem::exists(resumed_out)) << "a stopped run must not emit a report";

  // Keep killing and resuming, varying the thread count, until one leg
  // finishes. The final report must be byte-identical to the straight run.
  bool finished = false;
  for (int leg = 0; leg < 60 && !finished; ++leg) {
    const std::string threads = (leg % 2 == 0) ? "1" : "2";
    run_bench("--campaign " + spec + " --json --threads " + threads + " --resume " + ck +
                  " --checkpoint " + ck + " --stop-after-blocks 3 --out " + resumed_out +
                  " 2>/dev/null",
              &status);
    ASSERT_TRUE(status == 0 || status == 3) << "leg " << leg << " exited " << status;
    finished = status == 0;
  }
  ASSERT_TRUE(finished) << "campaign did not finish within the resume budget";
  EXPECT_EQ(read_file(resumed_out), read_file(plain_out))
      << "kill/resume must be bit-identical to the uninterrupted run";
  expect_no_temp_litter("bench_cli_ck_state.json");

  for (const auto& p : {spec, plain_out, resumed_out, ck}) std::remove(p.c_str());
}

TEST(BenchCliCheckpoint, ShardsThenMergeMatchesStraightRunByteForByte) {
  const std::string spec = write_checkpoint_spec("bench_cli_shard_spec.json");
  const std::string plain_out = testing::TempDir() + "bench_cli_shard_plain.json";
  const std::string s1 = testing::TempDir() + "bench_cli_shard1.json";
  const std::string s2 = testing::TempDir() + "bench_cli_shard2.json";
  const std::string merged_bench = testing::TempDir() + "bench_cli_shard_mb.json";

  int status = 0;
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --out " + plain_out, &status);
  ASSERT_EQ(status, 0);

  // Each shard run emits a finished partial snapshot, not a report.
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --shard 1/2 --out " + s1,
            &status);
  ASSERT_EQ(status, 0);
  run_bench("--campaign " + spec + " --json --threads 1 --batch 4 --shard 2/2 --out " + s2,
            &status);
  ASSERT_EQ(status, 0);
  const auto snap = sim::Json::parse(read_file(s1));
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->find("format")->as_string(), "rumor-campaign-checkpoint");

  // The merge agrees with the unsharded run, byte for byte.
  run_bench("--campaign " + spec + " --json --merge " + s1 + " " + s2 + " --out " + merged_bench,
            &status);
  ASSERT_EQ(status, 0);
  EXPECT_EQ(read_file(merged_bench), read_file(plain_out))
      << "rumor_bench --merge must be bit-identical to the unsharded run";

  // A merge with a shard missing is a validation failure (exit 1).
  run_bench("--campaign " + spec + " --json --merge " + s1 + " 2>/dev/null", &status);
  EXPECT_EQ(status, 1);

  for (const auto& p : {spec, plain_out, s1, s2, merged_bench}) {
    std::remove(p.c_str());
  }
}

TEST(BenchCliCheckpoint, FeatureFlagMisuseIsBadInput) {
  const std::string spec = write_checkpoint_spec("bench_cli_ck_misuse.json");
  int status = 0;

  // Checkpoint/shard/resume flags make no sense without --campaign.
  run_bench("e3_star --shard 1/2 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  run_bench("e3_star --checkpoint ck.json 2>/dev/null", &status);
  EXPECT_EQ(status, 2);

  // Malformed or out-of-range shard designators.
  for (const char* shard : {"3/2", "0/2", "2", "1/0", "a/b", "-1/2"}) {
    run_bench("--campaign " + spec + " --shard " + shard + " 2>/dev/null", &status);
    EXPECT_EQ(status, 2) << "--shard " << shard;
  }
  // Both halves are whole 32-bit numbers: no wrap past 2^32, no leading
  // blank. Each refusal names the value it was given.
  for (const char* shard : {"1/4294967297", "2/4294967298", " 1/2"}) {
    const std::string err = run_bench(
        "--campaign " + spec + " --shard '" + shard + "' 2>&1 >/dev/null", &status);
    EXPECT_EQ(status, 2) << "--shard '" << shard << "'";
    EXPECT_NE(err.find(std::string("got '") + shard + "'"), std::string::npos) << err;
  }

  // A stop budget without a checkpoint file would discard the progress.
  run_bench("--campaign " + spec + " --stop-after-blocks 2 2>/dev/null", &status);
  EXPECT_EQ(status, 2);

  // --merge folds existing snapshots; running shards in the same invocation
  // is contradictory, and merging nothing is vacuous.
  run_bench("--campaign " + spec + " --merge --shard 1/2 x.json 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  run_bench("--campaign " + spec + " --merge 2>/dev/null", &status);
  EXPECT_EQ(status, 2);

  // A missing resume file is bad input, never a silent fresh start.
  run_bench("--campaign " + spec + " --resume /no/such/ck.json 2>/dev/null", &status);
  EXPECT_EQ(status, 2);

  // A flag that would be clamped or ignored is refused by name: --scale
  // outside [1, 64], a write interval with no checkpoint file, and a block
  // size for experiments, which do not read it.
  const std::pair<std::string, const char*> orphans[] = {
      {"e3_star --scale 1000", "--scale"},
      {"e3_star --scale 0", "--scale"},
      {"--campaign " + spec + " --scale 65", "--scale"},
      {"--campaign " + spec + " --checkpoint-every 5", "--checkpoint-every"},
      {"e3_star --checkpoint-every 5", "--checkpoint-every"},
      {"e3_star --batch 7", "--batch"},
  };
  for (const auto& [args, flag] : orphans) {
    const std::string err = run_bench(args + " 2>&1 >/dev/null", &status);
    EXPECT_EQ(status, 2) << args;
    EXPECT_NE(err.find(flag), std::string::npos) << args << ": " << err;
  }

  std::remove(spec.c_str());
}

// --- Observability: --version, --progress, --trace, --telemetry --------------

TEST(BenchCliObservability, VersionPrintsBuildProvenance) {
  int status = 0;
  const std::string out = run_bench("--version", &status);
  EXPECT_EQ(status, 0);
  EXPECT_EQ(out.rfind("rumor_bench ", 0), 0u) << out;
  // sha, compiler, build type — same provenance every JSON report carries.
  EXPECT_NE(out.find('('), std::string::npos) << out;
}

TEST(BenchCliObservability, ProgressKeepsStdoutMachineParseable) {
  const std::string spec = write_spec("bench_cli_progress.json", R"({
    "name": "progresstest",
    "defaults": {"trials": 8, "seed": 5},
    "configs": [{"graph": "star", "n": [32, 48], "engine": ["sync", "async"]}]})");
  int status = 0;

  // stdout alone must stay a strict-parseable report stream.
  const std::string out =
      run_bench("--campaign " + spec + " --json --threads 2 --progress 2>/dev/null", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << "--progress leaked into stdout:\n" << out;
  ASSERT_TRUE(parsed->is_array());
  EXPECT_EQ(parsed->size(), 4u);

  // The heartbeat (at least the final summary line) lands on stderr.
  const std::string err =
      run_bench("--campaign " + spec + " --json --threads 2 --progress 2>&1 1>/dev/null", &status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(err.find("progress [progresstest]"), std::string::npos) << err;
  EXPECT_NE(err.find("done"), std::string::npos) << err;

  std::remove(spec.c_str());
}

TEST(BenchCliObservability, TraceWritesValidFileWithoutPerturbingTheReport) {
  const std::string spec = write_checkpoint_spec("bench_cli_trace_spec.json");
  const std::string plain_out = testing::TempDir() + "bench_cli_trace_plain.json";
  const std::string traced_out = testing::TempDir() + "bench_cli_trace_out.json";
  const std::string trace = testing::TempDir() + "bench_cli_trace.json";
  for (const auto& p : {plain_out, traced_out, trace}) std::remove(p.c_str());

  int status = 0;
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --out " + plain_out, &status);
  ASSERT_EQ(status, 0);
  run_bench("--campaign " + spec + " --json --threads 2 --batch 4 --trace " + trace + " --out " +
                traced_out,
            &status);
  ASSERT_EQ(status, 0);

  // The observational contract, end to end through the real binary.
  EXPECT_EQ(read_file(traced_out), read_file(plain_out))
      << "--trace must not perturb the report";

  const auto doc = sim::Json::parse(read_file(trace));
  ASSERT_TRUE(doc.has_value()) << "trace file is not valid JSON";
  const sim::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t block_spans = 0;
  for (const auto& ev : events->elements()) {
    if (ev.find("ph")->as_string() == "X" &&
        ev.find("name")->as_string().rfind("block:", 0) == 0) {
      ++block_spans;
    }
  }
  const sim::Json* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(static_cast<double>(block_spans),
            metrics->find("totals")->find("blocks_executed")->as_number());

  for (const auto& p : {spec, plain_out, traced_out, trace}) std::remove(p.c_str());
}

TEST(BenchCliObservability, TelemetryStatsAreOptInAndParseable) {
  const std::string spec = write_spec("bench_cli_tel.json", R"({
    "name": "teltest",
    "configs": [{"graph": "star", "n": 32, "trials": 8, "seed": 5}]})");
  int status = 0;
  const std::string out =
      run_bench("--campaign " + spec + " --json --threads 2 --telemetry 2>/dev/null", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  const sim::Json* telemetry = parsed->find("stats")->find("telemetry");
  ASSERT_NE(telemetry, nullptr) << "--telemetry must add stats.telemetry";
  EXPECT_EQ(telemetry->find("trials")->as_number(), 8.0);
  EXPECT_GE(telemetry->find("blocks")->as_number(), 1.0);
  EXPECT_GT(telemetry->find("campaign_wall_ms")->as_number(), 0.0);
  std::remove(spec.c_str());
}

TEST(BenchCliObservability, ObservabilityFlagMisuseIsBadInput) {
  int status = 0;
  // The flags describe a campaign run; without one they are bad input.
  run_bench("e3_star --progress 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  run_bench("e3_star --trace t.json 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  run_bench("e3_star --telemetry 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  // --trace needs a path.
  run_bench("--trace 2>/dev/null", &status);
  EXPECT_EQ(status, 2);
  // An unwritable trace path is a runtime failure, reported, exit 1.
  const std::string spec = write_spec("bench_cli_tracefail.json",
                                      R"({"configs": [{"graph": "star", "n": 32, "trials": 4}]})");
  run_bench("--campaign " + spec + " --json --trace /no_such_dir/t.json >/dev/null 2>/dev/null",
            &status);
  EXPECT_EQ(status, 1);
  std::remove(spec.c_str());
}

TEST(BenchCliObservability, StaleShardIsToleratedButReported) {
  // Shard snapshots carry a written_at wall-clock stamp. A merge where one
  // shard is hours older than the rest still succeeds — the stamp is
  // advisory — but the laggard is called out on stderr, because a stale
  // shard usually means someone forgot to re-run it after a spec change.
  const std::string spec = write_checkpoint_spec("bench_cli_stale_spec.json");
  const std::string s1 = testing::TempDir() + "bench_cli_stale1.json";
  const std::string s2 = testing::TempDir() + "bench_cli_stale2.json";
  const std::string merged = testing::TempDir() + "bench_cli_stale_merged.json";

  int status = 0;
  run_bench("--campaign " + spec + " --json --batch 4 --shard 1/2 --out " + s1, &status);
  ASSERT_EQ(status, 0);
  run_bench("--campaign " + spec + " --json --batch 4 --shard 2/2 --out " + s2, &status);
  ASSERT_EQ(status, 0);

  // Age shard 1 by rewriting its stamp two hours into the past.
  auto snap = sim::Json::parse(read_file(s1));
  ASSERT_TRUE(snap.has_value());
  const sim::Json* stamp = snap->find("written_at");
  ASSERT_NE(stamp, nullptr) << "snapshots must carry written_at";
  snap->set("written_at", stamp->as_number() - 7200.0);
  {
    std::ofstream file(s1, std::ios::trunc);
    file << snap->dump(2) << "\n";
  }

  const std::string err = run_bench("--campaign " + spec + " --json --merge " + s1 + " " + s2 +
                                        " --out " + merged + " 2>&1 1>/dev/null",
                                    &status);
  EXPECT_EQ(status, 0) << "a stale stamp must not fail the merge:\n" << err;
  EXPECT_NE(err.find("stale shard"), std::string::npos) << err;
  EXPECT_NE(err.find("bench_cli_stale1.json"), std::string::npos) << err;
  EXPECT_TRUE(std::filesystem::exists(merged));

  for (const auto& p : {spec, s1, s2, merged}) std::remove(p.c_str());
}

TEST(BenchCliObservability, EveryReportCarriesBuildInfo) {
  int status = 0;
  const std::string out = run_bench("e3_star --trials 8 --seed 7 --json", &status);
  EXPECT_EQ(status, 0);
  const auto parsed = sim::Json::parse(out);
  ASSERT_TRUE(parsed.has_value());
  const sim::Json* build = parsed->find("build_info");
  ASSERT_NE(build, nullptr) << "experiment reports must carry build_info";
  for (const char* key : {"git_sha", "compiler", "compiler_version", "build_type", "flags"}) {
    ASSERT_NE(build->find(key), nullptr) << key;
  }
}

// --- Report text: the spliced --json output against the Json tree ------------

namespace {

/// The reports of `spec` built as one Json tree and dumped whole: one
/// report as its object, more as the array of them. Run in-process at the
/// CLI's default block size.
std::string json_tree_rendering(const std::string& spec_path, unsigned threads) {
  std::ostringstream err;
  const auto spec = sim::load_campaign_spec_file(spec_path, 0, 0, 1, "test", err);
  EXPECT_TRUE(spec.has_value()) << err.str();
  if (!spec) return {};
  sim::CampaignOptions options;
  options.threads = threads;
  options.block_size = 32;
  const auto results = sim::run_campaign(spec->configs, options);
  sim::Json reports = sim::Json::array();
  for (const auto& r : results) reports.push_back(sim::campaign_report(r, spec->name));
  return (reports.size() == 1 ? reports.elements().front().dump(2) : reports.dump(2)) + "\n";
}

}  // namespace

TEST(ReportText, JsonOutputIsTheJsonTreeRendering) {
  const std::string one = write_spec("report_text_one.json", R"({
    "name": "one",
    "configs": [{"graph": "star", "n": 32, "trials": 40, "seed": 5}]})");
  const std::string many = write_checkpoint_spec("report_text_many.json");
  const std::string trace = testing::TempDir() + "report_text_trace.json";
  for (const auto& [spec, objects] : {std::pair{one, false}, std::pair{many, true}}) {
    const std::string expected = json_tree_rendering(spec, 2);
    int status = 0;
    const std::string plain = run_bench("--campaign " + spec + " --json --threads 3", &status);
    ASSERT_EQ(status, 0);
    EXPECT_EQ(plain, expected) << spec;
    // The telemetry block is added on the render threads before the dump;
    // its timings differ run to run, so the oracle is the printed tree
    // parsed back and dumped whole.
    for (const std::string& flags :
         {std::string(" --telemetry"), " --telemetry --trace " + trace}) {
      const std::string out =
          run_bench("--campaign " + spec + " --json --threads 3" + flags + " 2>/dev/null", &status);
      ASSERT_EQ(status, 0) << flags;
      const auto parsed = sim::Json::parse(out);
      ASSERT_TRUE(parsed.has_value()) << out;
      EXPECT_EQ(parsed->is_array(), objects) << spec << flags;
      EXPECT_EQ(out, parsed->dump(2) + "\n") << spec << flags;
      const sim::Json& first = parsed->is_array() ? parsed->elements().front() : *parsed;
      EXPECT_NE(first.find("stats")->find("telemetry"), nullptr) << spec << flags;
    }
    // Human output keeps the reports in spec order at any thread count.
    const std::string human1 = run_bench("--campaign " + spec + " --threads 1", &status);
    ASSERT_EQ(status, 0);
    EXPECT_EQ(run_bench("--campaign " + spec + " --threads 3", &status), human1) << spec;
    EXPECT_FALSE(sim::Json::parse(human1).has_value());
  }
  for (const auto& p : {one, many, trace}) std::remove(p.c_str());
}

// --- --resume: adopting the snapshot header's numbers ------------------------

TEST(ResumeHeader, RejectsNumbersOutsideTheirFieldNamingKeyAndValue) {
  const std::string spec = write_checkpoint_spec("resume_header_spec.json");
  const std::string ck = testing::TempDir() + "resume_header_ck.json";
  const std::string edited = testing::TempDir() + "resume_header_edited.json";
  const std::string plain = testing::TempDir() + "resume_header_plain.json";
  const std::string resumed = testing::TempDir() + "resume_header_resumed.json";
  for (const auto& p : {ck, edited, plain, resumed}) std::remove(p.c_str());
  int status = 0;
  run_bench("--campaign " + spec + " --json --batch 4 --out " + plain, &status);
  ASSERT_EQ(status, 0);
  run_bench("--campaign " + spec + " --json --batch 4 --checkpoint " + ck +
                " --stop-after-blocks 3 2>/dev/null",
            &status);
  ASSERT_EQ(status, 3);
  const auto doc = sim::Json::parse(read_file(ck));
  ASSERT_TRUE(doc.has_value());

  // Each value is read where --resume adopts it, before any work: negative,
  // fractional, beyond the 2^53 a JSON number holds exactly, and beyond the
  // field (2^32 + 1 for the 32-bit shard fields, 2^53 + 2 for the block
  // size, which --batch accepts up to 2^53).
  struct Bad {
    const char* key;
    double value;
    const char* text;
  };
  const std::vector<Bad> cases = {
      {"block_size", -1.0, "-1"},          {"block_size", 2.5, "2.5"},
      {"block_size", 1e30, "1e+30"},       {"block_size", 9007199254740994.0, "9007199254740994"},
      {"shard_index", -1.0, "-1"},         {"shard_index", 2.5, "2.5"},
      {"shard_index", 1e30, "1e+30"},      {"shard_index", 4294967297.0, "4294967297"},
      {"shard_count", -1.0, "-1"},         {"shard_count", 2.5, "2.5"},
      {"shard_count", 1e30, "1e+30"},      {"shard_count", 4294967297.0, "4294967297"},
  };
  for (const Bad& bad : cases) {
    sim::Json copy = *doc;
    copy.set(bad.key, bad.value);
    std::ofstream(edited, std::ios::trunc) << copy.dump(2) << "\n";
    const std::string err =
        run_bench("--campaign " + spec + " --json --resume " + edited + " 2>&1 >/dev/null",
                  &status);
    EXPECT_EQ(status, 1) << bad.key << " = " << bad.text << ": " << err;
    EXPECT_NE(err.find(std::string("'") + bad.key + "'"), std::string::npos)
        << bad.key << " = " << bad.text << ": " << err;
    EXPECT_NE(err.find(std::string("got ") + bad.text), std::string::npos)
        << bad.key << " = " << bad.text << ": " << err;
  }

  // The untouched checkpoint resumes with its own block size adopted and
  // finishes with the straight run's bytes.
  run_bench("--campaign " + spec + " --json --resume " + ck + " --out " + resumed, &status);
  ASSERT_EQ(status, 0);
  EXPECT_EQ(read_file(resumed), read_file(plain));
  for (const auto& p : {spec, ck, edited, plain, resumed}) std::remove(p.c_str());
}

// --- --resume: entry ids are 32-bit, numbers finite --------------------------

namespace {

/// `text` with the first `"key": <integer>` raised by 2^32, and the raised
/// value's text ("" when the key does not occur).
std::pair<std::string, std::string> raise_by_2_32(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {text, ""};
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find_first_not_of("0123456789", begin);
  const std::string raised =
      std::to_string((std::uint64_t{1} << 32) + std::stoull(text.substr(begin, end - begin)));
  return {text.substr(0, begin) + raised + text.substr(end), raised};
}

}  // namespace

TEST(ResumeHeader, RejectsEntryIdsBeyond32BitsNamingKeyAndValue) {
  // `source` and `best_source` are node ids and `entrant` a candidate index:
  // all 32-bit. A 64-bit read cast down used to wrap 2^32 + 39 to 39 and
  // resume as if nothing were wrong.
  const std::string spec = write_checkpoint_spec("resume_ids_spec.json");
  const std::string done = testing::TempDir() + "resume_ids_done.json";
  const std::string mid = testing::TempDir() + "resume_ids_mid.json";
  const std::string edited = testing::TempDir() + "resume_ids_edited.json";
  for (const auto& p : {done, mid}) std::remove(p.c_str());
  int status = 0;
  run_bench("--campaign " + spec + " --json --batch 4 --threads 1 --checkpoint " + done +
                " > /dev/null",
            &status);
  ASSERT_EQ(status, 0);
  // The race config has recorded screen or refine blocks a few blocks in.
  std::string race_text;
  for (int blocks = 1; blocks <= 64 && race_text.empty(); ++blocks) {
    std::remove(mid.c_str());
    run_bench("--campaign " + spec + " --json --batch 4 --threads 1 --checkpoint " + mid +
                  " --stop-after-blocks " + std::to_string(blocks) + " 2>/dev/null",
              &status);
    if (status != 3) break;
    if (read_file(mid).find("\"entrant\": ") != std::string::npos) race_text = read_file(mid);
  }
  ASSERT_FALSE(race_text.empty()) << "no checkpoint with race blocks";

  for (const auto& [key, text] : {std::pair{std::string("source"), read_file(done)},
                                  std::pair{std::string("best_source"), read_file(done)},
                                  std::pair{std::string("entrant"), race_text}}) {
    const auto [bad, value] = raise_by_2_32(text, key);
    ASSERT_FALSE(value.empty()) << key;
    std::ofstream(edited, std::ios::trunc) << bad;
    const std::string err =
        run_bench("--campaign " + spec + " --json --resume " + edited + " 2>&1 >/dev/null",
                  &status);
    EXPECT_EQ(status, 1) << key << " = " << value << ": " << err;
    EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << key << ": " << err;
    EXPECT_NE(err.find("got " + value), std::string::npos) << key << ": " << err;
  }
  for (const auto& p : {spec, done, mid, edited}) std::remove(p.c_str());
}

TEST(ResumeHeader, RejectsNumbersThatAreNotFiniteDoubles) {
  // 1e999 used to parse as inf and come back out as null: a spec ran with
  // "time_bucket": null in its report, a checkpoint resumed into "mean": null.
  const std::string spec = write_spec("nonfinite_spec.json", R"({
    "name": "nonfinite",
    "configs": [{"graph": "star", "n": 16, "trials": 4, "engine": "async",
                 "curves": {"points": 4, "time_bucket": 1e999}}]})");
  int status = 0;
  std::string err = run_bench("--campaign " + spec + " --json 2>&1 >/dev/null", &status);
  EXPECT_EQ(status, 2) << err;
  EXPECT_NE(err.find(spec + ": invalid JSON at byte "), std::string::npos) << err;
  EXPECT_NE(err.find(": expected a finite double"), std::string::npos) << err;

  const std::string ck_spec = write_checkpoint_spec("nonfinite_ck_spec.json");
  const std::string ck = testing::TempDir() + "nonfinite_ck.json";
  std::remove(ck.c_str());
  run_bench("--campaign " + ck_spec + " --json --batch 4 --checkpoint " + ck +
                " --stop-after-blocks 3 2>/dev/null",
            &status);
  ASSERT_EQ(status, 3);
  std::string text = read_file(ck);
  const std::size_t at = text.find("\"mean\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = at + 8;
  text.replace(begin, text.find(',', begin) - begin, "1e999");
  std::ofstream(ck, std::ios::trunc) << text;
  err = run_bench("--campaign " + ck_spec + " --json --resume " + ck + " 2>&1 >/dev/null",
                  &status);
  EXPECT_EQ(status, 2) << err;
  EXPECT_NE(err.find(ck + ": invalid JSON at byte " + std::to_string(begin) +
                     ": expected a finite double"),
            std::string::npos)
      << err;
  for (const auto& p : {spec, ck_spec, ck}) std::remove(p.c_str());
}
