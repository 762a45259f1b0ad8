// Tests for the Monte-Carlo harness — thread-schedule-independent
// reproducibility, trial seeding, the shared parallel_for, the measure_*
// wrappers' equality with a serial run_trial loop, SpreadingTimeSample
// derived statistics, and the Table sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trial.hpp"
#include "graph/generators.hpp"
#include "sim/harness.hpp"
#include "sim/table.hpp"
#include "support/run_trials.hpp"

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
  // The measure_* wrappers keep the contract on the campaign path, which
  // would refuse a 0-trial config with a runtime_error instead.
  const auto g = graph::hypercube(3);
  for (const unsigned threads : {1u, 4u}) {
    config.threads = threads;
    EXPECT_THROW((void)sim::measure_sync(g, 0, core::Mode::kPushPull, config),
                 std::invalid_argument);
    EXPECT_THROW((void)sim::measure_async(g, 0, core::Mode::kPushPull, config),
                 std::invalid_argument);
    EXPECT_THROW((void)sim::measure_aux(g, 0, core::AuxKind::kPpx, config),
                 std::invalid_argument);
  }
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

TEST(ParallelFor, VisitsEveryIndexOnceAtAnyThreadCount) {
  for (const unsigned threads : {0u, 1u, 3u, 16u}) {
    std::vector<std::atomic<int>> hits(100);
    sim::parallel_for(hits.size(), threads, [&](std::uint64_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
  sim::parallel_for(0, 4, [](std::uint64_t) { FAIL() << "no index to visit"; });
}

TEST(ParallelFor, StopsOnTheFirstExceptionAndRethrowsIt) {
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<std::uint64_t> ran{0};
    try {
      sim::parallel_for(1000, threads, [&](std::uint64_t i) {
        ++ran;
        if (i == 5) throw std::runtime_error("body failed");
      });
      FAIL() << "the body's exception must reach the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "body failed");
    }
    // Serially nothing runs past the throwing index.
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 6u);
    }
  }
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
  // Every wrapper against core::run_trial on derive_stream(seed, t), trial
  // by trial. 16 and more trials reach the trial lanes where the CPU has
  // them, and 300 and 600 pass the 256 items a quantile sketch level holds
  // and the default reservoir of 512: the sample, read from the summary's
  // values, must still hold every trial exactly.
  const auto g = graph::hypercube(5);
  const graph::NodeId source = 3;
  struct Wrapper {
    const char* name;
    core::EngineKind kind;
    core::Mode mode;
    core::TrialExtras extras;
  };
  const Wrapper wrappers[] = {
      {"sync push-pull", core::EngineKind::kSync, core::Mode::kPushPull, {}},
      {"sync push", core::EngineKind::kSync, core::Mode::kPush, {}},
      {"async global", core::EngineKind::kAsync, core::Mode::kPushPull,
       {.view = core::AsyncView::kGlobalClock}},
      {"async per-node", core::EngineKind::kAsync, core::Mode::kPushPull,
       {.view = core::AsyncView::kPerNodeClocks}},
      {"async per-edge", core::EngineKind::kAsync, core::Mode::kPushPull,
       {.view = core::AsyncView::kPerEdgeClocks}},
      {"aux ppx", core::EngineKind::kAux, core::Mode::kPushPull, {.aux = core::AuxKind::kPpx}},
      {"aux ppy", core::EngineKind::kAux, core::Mode::kPushPull, {.aux = core::AuxKind::kPpy}},
  };
  auto measure = [&](const Wrapper& w, const sim::TrialConfig& c) {
    switch (w.kind) {
      case core::EngineKind::kSync: return sim::measure_sync(g, source, w.mode, c);
      case core::EngineKind::kAsync: return sim::measure_async(g, source, w.mode, c, w.extras.view);
      default: return sim::measure_aux(g, source, w.extras.aux, c);
    }
  };
  for (const Wrapper& w : wrappers) {
    for (const std::uint64_t trials : {1u, 15u, 16u, 300u, 600u}) {
      const std::uint64_t seed = 40 + trials;
      std::vector<double> serial;
      for (std::uint64_t t = 0; t < trials; ++t) {
        auto eng = rng::derive_stream(seed, t);
        core::TrialOptions options;
        options.mode = w.mode;
        const auto outcome = core::run_trial(w.kind, g, source, eng, options, w.extras);
        ASSERT_TRUE(outcome.completed);
        serial.push_back(outcome.value);
      }
      std::sort(serial.begin(), serial.end());
      for (const unsigned threads : {1u, 3u}) {
        const sim::TrialConfig config{.trials = trials, .seed = seed, .threads = threads};
        EXPECT_EQ(measure(w, config).samples(), serial)
            << w.name << ", " << trials << " trials, " << threads << " threads";
      }
    }
  }
}

TEST(MeasureFunctions, CappedTrialFailsWithTheCampaignError) {
  // Two components: the rumor never reaches nodes 2 and 3.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = std::move(b).build("two_edges");
  sim::TrialConfig config;
  config.trials = 2;
  config.threads = 1;
  try {
    (void)sim::measure_sync(g, 0, core::Mode::kPushPull, config);
    FAIL() << "a capped trial must fail the measurement";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "campaign: engine 'sync' hit its tick cap (disconnected or churned-out graph?)");
  }
}

TEST(Table, PrintsAlignedColumns) {
  sim::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.num_rows(), 2u);
  t.print();  // smoke: must not crash
}

TEST(FmtCell, FormatsNumbers) {
  EXPECT_EQ(sim::fmt_cell("%.2f", 3.14159), "3.14");
  EXPECT_EQ(sim::fmt_cell("%u", 42u), "42");
}
