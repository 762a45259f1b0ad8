// Tests for the extension features: graph I/O, new generators
// (wheel / complete bipartite / 3-D torus / Watts-Strogatz), message-loss
// fault injection, multi-source spreading, and the push coupling of
// Section 3.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/rumor.hpp"
#include "dist/distributions.hpp"
#include "sim/harness.hpp"
#include "support/coupling_push.hpp"
#include "support/graph_oracles.hpp"
#include "support/run_trials.hpp"

using namespace rumor;

// --- New generators -------------------------------------------------------

TEST(GeneratorsExt, Wheel) {
  const auto g = graph::wheel(10);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.degree(0), 9u);   // hub
  EXPECT_EQ(g.degree(3), 3u);   // rim: hub + 2 rim neighbors
  EXPECT_EQ(g.num_edges(), 18u);  // 9 spokes + 9 rim
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(graph::diameter(g), 2u);
}

TEST(GeneratorsExt, CompleteBipartite) {
  const auto g = graph::complete_bipartite(3, 5);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.degree(4), 3u);
  EXPECT_FALSE(g.has_edge(0, 1));  // no intra-side edges
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_EQ(graph::diameter(g), 2u);
}

TEST(GeneratorsExt, CompleteBipartiteOneSideIsStar) {
  const auto kb = graph::complete_bipartite(1, 7);
  const auto st = graph::star(8);
  EXPECT_EQ(kb.num_edges(), st.num_edges());
  EXPECT_EQ(kb.degree(0), st.degree(0));
}

TEST(GeneratorsExt, Torus3d) {
  const auto g = graph::torus3d(3);
  EXPECT_EQ(g.num_nodes(), 27u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(graph::diameter(g), 3u);  // 1 wrap hop per axis
}

TEST(GeneratorsExt, WattsStrogatzNoRewireIsLattice) {
  auto eng = rng::derive_stream(71, 0);
  const auto g = graph::watts_strogatz(64, 4, 0.0, eng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(graph::diameter(g), 16u);  // n / k
}

TEST(GeneratorsExt, WattsStrogatzRewiringShrinksDiameter) {
  auto eng = rng::derive_stream(71, 1);
  const auto lattice = graph::watts_strogatz(256, 4, 0.0, eng);
  const auto small_world = graph::largest_component(graph::watts_strogatz(256, 4, 0.3, eng));
  EXPECT_LT(graph::diameter(small_world), graph::diameter(lattice) / 2);
}

// --- Graph I/O --------------------------------------------------------------

TEST(GraphIo, RoundTripsThroughStream) {
  const auto g = graph::hypercube(4);
  std::stringstream ss;
  graph::write_edge_list(g, ss);
  const auto back = graph::read_edge_list(ss, "roundtrip");
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId w : g.neighbors(v)) EXPECT_TRUE(back.has_edge(v, w));
  }
}

TEST(GraphIo, CompactsSparseIdsWhenAsked) {
  std::stringstream ss("# comment\n100 200\n200 300\n\n300 100\n");
  const auto g = graph::read_edge_list(ss, "sparse", /*compact_ids=*/true);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);  // a triangle
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(GraphIo, PreservesIdsByDefault) {
  std::stringstream ss("0 5\n5 2\n");
  const auto g = graph::read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 6u);  // max id + 1; ids 1,3,4 are isolated
  EXPECT_TRUE(g.has_edge(0, 5));
  EXPECT_TRUE(g.has_edge(5, 2));
}

TEST(GraphIo, IgnoresCommentsAndDuplicates) {
  std::stringstream ss("0 1 # inline comment\n1 0\n0 0\n1 2\n");
  const auto g = graph::read_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);  // dedup + dropped self-loop
}

TEST(GraphIo, ThrowsOnMalformedLine) {
  std::stringstream ss("0 1\n2\n");
  EXPECT_THROW((void)graph::read_edge_list(ss), std::runtime_error);
}

TEST(GraphIo, FileRoundTrip) {
  const auto g = graph::cycle(9);
  const std::string path = "/tmp/rumor_io_test.edges";
  graph::write_edge_list_file(g, path);
  const auto back = graph::read_edge_list_file(path);
  EXPECT_EQ(back.num_nodes(), 9u);
  EXPECT_EQ(back.num_edges(), 9u);
  std::remove(path.c_str());
}

// --- Fault injection -----------------------------------------------------------

TEST(Faults, LossSlowsSyncSpreading) {
  const auto g = graph::hypercube(7);
  sim::TrialConfig config;
  config.trials = 80;
  config.seed = 73;
  auto measure = [&](double loss) {
    auto samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
      core::SyncOptions opts;
      opts.message_loss = loss;
      const auto r = core::run_sync(g, 0, eng, opts);
      return static_cast<double>(r.rounds);
    });
    return sim::SpreadingTimeSample(std::move(samples)).mean();
  };
  const double clean = measure(0.0);
  const double lossy = measure(0.5);
  EXPECT_GT(lossy, 1.2 * clean);
  EXPECT_LT(lossy, 4.0 * clean);  // ~2x expected: each exchange is a coin flip
}

TEST(Faults, LossSlowsAsyncByExpectedFactor) {
  // Thinning a Poisson contact process by (1 - p) rescales time by
  // 1/(1 - p); with p = 0.5 async times should roughly double.
  const auto g = graph::complete(64);
  sim::TrialConfig config;
  config.trials = 150;
  config.seed = 74;
  auto measure = [&](double loss) {
    auto samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
      core::AsyncOptions opts;
      opts.message_loss = loss;
      const auto r = core::run_async(g, 0, eng, opts);
      return r.time;
    });
    return sim::SpreadingTimeSample(std::move(samples)).mean();
  };
  const double clean = measure(0.0);
  const double lossy = measure(0.5);
  EXPECT_NEAR(lossy / clean, 2.0, 0.35);
}

TEST(Faults, TotalLossNeverCompletes) {
  const auto g = graph::path(4);
  auto eng = rng::derive_stream(75, 0);
  core::SyncOptions opts;
  opts.message_loss = 1.0;
  opts.max_ticks = 50;
  const auto r = core::run_sync(g, 0, eng, opts);
  EXPECT_FALSE(r.completed);
}

// --- Multi-source ---------------------------------------------------------------

TEST(MultiSource, ExtraSourcesStartInformed) {
  const auto g = graph::path(64);
  auto eng = rng::derive_stream(76, 0);
  core::SyncOptions opts;
  opts.extra_sources = {32, 63};
  const auto r = core::run_sync(g, 0, eng, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.informed_round[0], 0u);
  EXPECT_EQ(r.informed_round[32], 0u);
  EXPECT_EQ(r.informed_round[63], 0u);
}

TEST(MultiSource, MoreSourcesNeverSlowerOnPath) {
  // Path from one end takes ~n rounds; seeding the middle and far end cuts
  // the worst distance by ~4x.
  const auto g = graph::path(128);
  sim::TrialConfig config;
  config.trials = 40;
  config.seed = 77;
  auto measure = [&](std::vector<graph::NodeId> extras) {
    auto samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
      core::SyncOptions opts;
      opts.extra_sources = extras;
      return static_cast<double>(core::run_sync(g, 0, eng, opts).rounds);
    });
    return sim::SpreadingTimeSample(std::move(samples)).mean();
  };
  const double single = measure({});
  const double triple = measure({64, 127});
  EXPECT_LT(triple, 0.5 * single);
}

TEST(MultiSource, AsyncExtraSourcesAtTimeZero) {
  const auto g = graph::cycle(32);
  auto eng = rng::derive_stream(78, 0);
  core::AsyncOptions opts;
  opts.extra_sources = {16};
  const auto r = core::run_async(g, 0, eng, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.informed_time[16], 0.0);
}

TEST(MultiSource, DuplicateSourcesAreIdempotent) {
  const auto g = graph::cycle(16);
  auto eng = rng::derive_stream(78, 1);
  core::SyncOptions opts;
  opts.extra_sources = {0, 5, 5};
  const auto r = core::run_sync(g, 0, eng, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.informed_round[5], 0u);
}

// --- Push coupling (Section 3) -----------------------------------------------

TEST(PushCoupling, CompletesAndDeterministic) {
  const auto g = graph::hypercube(6);
  auto a_eng = rng::derive_stream(79, 0);
  auto b_eng = rng::derive_stream(79, 0);
  const auto a = core::run_push_coupling(g, 0, a_eng);
  const auto b = core::run_push_coupling(g, 0, b_eng);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.round_push, b.round_push);
  EXPECT_EQ(a.time_push_a, b.time_push_a);
}

TEST(PushCoupling, AsyncDominatedInExpectationPerNode) {
  // Section 3: E[t_v] <= E[r_v] under the coupling. Average both over many
  // runs and require the async mean to not exceed the sync mean beyond
  // noise, node by node (we check the aggregate and the worst node).
  const auto g = graph::hypercube(6);
  const graph::NodeId n = g.num_nodes();
  std::vector<double> sum_r(n, 0.0);
  std::vector<double> sum_t(n, 0.0);
  constexpr int kRuns = 300;
  for (int i = 0; i < kRuns; ++i) {
    auto eng = rng::derive_stream(80, static_cast<std::uint64_t>(i));
    const auto run = core::run_push_coupling(g, 0, eng);
    ASSERT_TRUE(run.completed);
    for (graph::NodeId v = 0; v < n; ++v) {
      sum_r[v] += static_cast<double>(run.round_push[v]);
      sum_t[v] += run.time_push_a[v];
    }
  }
  double worst_excess = 0.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    worst_excess = std::max(worst_excess, (sum_t[v] - sum_r[v]) / kRuns);
  }
  // E[t_v] - E[r_v] <= 0 up to Monte-Carlo noise (~3 * sigma/sqrt(runs)).
  EXPECT_LE(worst_excess, 0.5);
}

TEST(PushCoupling, SyncMarginalMatchesEngine) {
  const auto g = graph::hypercube(6);
  constexpr int kTrials = 400;
  std::vector<double> coupled;
  for (int i = 0; i < kTrials; ++i) {
    auto eng = rng::derive_stream(81, static_cast<std::uint64_t>(i));
    coupled.push_back(static_cast<double>(core::run_push_coupling(g, 0, eng).push_rounds()));
  }
  sim::TrialConfig config;
  config.trials = kTrials;
  config.seed = 82;
  const auto engine = sim::measure_sync(g, 0, core::Mode::kPush, config);
  const double ks = dist::ks_statistic(dist::Ecdf(coupled), dist::Ecdf(engine.samples()));
  EXPECT_LT(ks, 0.14);
}

TEST(PushCoupling, AsyncMarginalMatchesEngine) {
  const auto g = graph::hypercube(6);
  constexpr int kTrials = 400;
  std::vector<double> coupled;
  for (int i = 0; i < kTrials; ++i) {
    auto eng = rng::derive_stream(83, static_cast<std::uint64_t>(i));
    coupled.push_back(core::run_push_coupling(g, 0, eng).push_a_time());
  }
  sim::TrialConfig config;
  config.trials = kTrials;
  config.seed = 84;
  const auto engine = sim::measure_async(g, 0, core::Mode::kPush, config);
  const double ks = dist::ks_statistic(dist::Ecdf(coupled), dist::Ecdf(engine.samples()));
  EXPECT_LT(ks, 0.14);
}
