// Tests for the Monte-Carlo harness — thread-schedule-independent
// reproducibility, trial seeding, SpreadingTimeSample derived statistics,
// and the Table/CSV sink.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"
#include "sim/harness.hpp"
#include "sim/table.hpp"

using namespace rumor;

TEST(RunTrials, ResultsOrderedByTrialIndex) {
  sim::TrialConfig config;
  config.trials = 64;
  config.seed = 3;
  config.threads = 4;
  const auto results =
      sim::run_trials(config, [](std::uint64_t t, rng::Engine&) { return static_cast<double>(t); });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], static_cast<double>(i));
  }
}

TEST(RunTrials, ZeroTrialsIsRejected) {
  // Checked at runtime, not by assert(): Release builds compile asserts out,
  // and an empty sample has no statistics to summarize.
  sim::TrialConfig config;
  config.trials = 0;
  bool called = false;
  auto body = [&](std::uint64_t, rng::Engine&) {
    called = true;
    return 0.0;
  };
  for (const unsigned threads : {1u, 4u}) {
    config.threads = threads;
    EXPECT_THROW((void)sim::run_trials(config, body), std::invalid_argument);
  }
  EXPECT_FALSE(called);
  EXPECT_THROW((void)sim::measure_sync(graph::hypercube(3), 0, core::Mode::kPushPull, config),
               std::invalid_argument);
}

TEST(RunTrials, SameSeedSameResultsAcrossThreadCounts) {
  const auto g = graph::hypercube(5);
  auto body = [&](std::uint64_t, rng::Engine& eng) {
    return static_cast<double>(core::run_sync(g, 0, eng).rounds);
  };
  sim::TrialConfig serial;
  serial.trials = 40;
  serial.seed = 5;
  serial.threads = 1;
  sim::TrialConfig parallel = serial;
  parallel.threads = 8;
  EXPECT_EQ(sim::run_trials(serial, body), sim::run_trials(parallel, body));
}

TEST(RunTrials, EnginesAreTrialSpecific) {
  // Two trials must see different randomness.
  sim::TrialConfig config;
  config.trials = 2;
  config.seed = 9;
  const auto results = sim::run_trials(
      config, [](std::uint64_t, rng::Engine& eng) { return rng::uniform01(eng); });
  EXPECT_NE(results[0], results[1]);
}

TEST(SpreadingTimeSample, DerivedStatistics) {
  sim::SpreadingTimeSample s({4.0, 2.0, 6.0, 8.0});  // sorted internally
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(s.hp_time(0.25), 6.0);  // smallest t with >= 75% of mass
}

TEST(SpreadingTimeSample, MeanCiContainsMean) {
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(static_cast<double>(i % 10));
  sim::SpreadingTimeSample s(std::move(xs));
  const auto ci = s.mean_ci();
  EXPECT_LE(ci.lower, s.mean());
  EXPECT_GE(ci.upper, s.mean());
}

TEST(MeasureFunctions, AgreeWithDirectRuns) {
  const auto g = graph::complete(32);
  sim::TrialConfig config;
  config.trials = 10;
  config.seed = 31;
  config.threads = 1;
  const auto sample = sim::measure_sync(g, 0, core::Mode::kPushPull, config);
  // Reproduce trial 0 by hand: same derived stream.
  auto eng = rng::derive_stream(31, 0);
  const auto direct = core::run_sync(g, 0, eng);
  // measure_sync sorts; the direct value must be among the samples.
  bool found = false;
  for (double x : sample.samples()) {
    if (x == static_cast<double>(direct.rounds)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Table, PrintsAlignedColumns) {
  sim::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.num_rows(), 2u);
  t.print();  // smoke: must not crash
}

TEST(Table, WritesCsv) {
  sim::Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const auto path = std::filesystem::temp_directory_path() / "rumor_table_test.csv";
  t.write_csv(path.string());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "x,y\n1,2\n3,4\n");
  std::filesystem::remove(path);
}

TEST(FmtCell, FormatsNumbers) {
  EXPECT_EQ(sim::fmt_cell("%.2f", 3.14159), "3.14");
  EXPECT_EQ(sim::fmt_cell("%u", 42u), "42");
}
