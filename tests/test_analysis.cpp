// Tests for rumor::analysis and rumor::dist tail bounds — the theory
// oracles. Each known-law prediction window is checked against fresh
// Monte-Carlo measurements of the actual engines, closing the loop between
// the literature's formulas and this implementation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rumor.hpp"
#include "dist/distributions.hpp"
#include "graph/expansion.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"
#include "support/known_bounds.hpp"
#include "support/tail_bounds.hpp"

using namespace rumor;

// --- Tail-bound machinery -----------------------------------------------------

TEST(TailBounds, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(dist::harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(dist::harmonic(2), 1.5);
  EXPECT_NEAR(dist::harmonic(100), 5.18737751763962, 1e-10);
  // Asymptotic branch agrees with direct summation at the crossover.
  EXPECT_NEAR(dist::harmonic(2000000), std::log(2e6) + 0.5772156649, 1e-6);
}

TEST(TailBounds, CouponCollectorMean) {
  EXPECT_NEAR(dist::coupon_collector_mean(10), 10.0 * dist::harmonic(10), 1e-12);
}

TEST(TailBounds, BinomialChernoffBoundsEmpiricalTails) {
  // Empirical tail frequencies must never exceed the Chernoff bound.
  auto eng = rng::derive_stream(900, 0);
  constexpr std::uint64_t kN = 200;
  constexpr double kP = 0.3;
  constexpr int kSamples = 20000;
  const double mu = kN * kP;
  for (double delta : {0.2, 0.5}) {
    int upper = 0;
    int lower = 0;
    for (int s = 0; s < kSamples; ++s) {
      int x = 0;
      for (std::uint64_t i = 0; i < kN; ++i) x += rng::bernoulli(eng, kP) ? 1 : 0;
      if (x >= (1.0 + delta) * mu) ++upper;
      if (x <= (1.0 - delta) * mu) ++lower;
    }
    EXPECT_LE(static_cast<double>(upper) / kSamples,
              dist::binomial_upper_tail(kN, kP, delta) + 0.01);
    EXPECT_LE(static_cast<double>(lower) / kSamples,
              dist::binomial_lower_tail(kN, kP, delta) + 0.01);
  }
}

TEST(TailBounds, NegBinTailIsExact) {
  // Cross-check the binomial-complement formula against the summed pmf.
  const dist::NegativeBinomial nb(4, 0.35);
  for (std::uint64_t t : {4ull, 8ull, 16ull, 30ull}) {
    EXPECT_NEAR(dist::negbin_upper_tail(4, 0.35, t), 1.0 - nb.cdf(t), 1e-9) << t;
  }
}

TEST(TailBounds, NegBinTailBelowK) {
  EXPECT_DOUBLE_EQ(dist::negbin_upper_tail(5, 0.5, 4), 1.0);
  EXPECT_DOUBLE_EQ(dist::negbin_upper_tail(5, 0.5, 3), 1.0);
}

TEST(TailBounds, ErlangTailMatchesCdf) {
  const dist::Erlang erl(3, 2.0);
  for (double t : {0.5, 1.5, 4.0}) {
    EXPECT_NEAR(dist::erlang_upper_tail(3, 2.0, t), 1.0 - erl.cdf(t), 1e-12);
  }
}

TEST(TailBounds, CouponCollectorTailBoundsEmpirical) {
  auto eng = rng::derive_stream(901, 0);
  constexpr std::uint64_t kCoupons = 50;
  constexpr int kSamples = 10000;
  const double threshold = 50.0 * std::log(50.0) + 1.5 * 50.0;  // c = 1.5
  int exceeded = 0;
  for (int s = 0; s < kSamples; ++s) {
    std::vector<bool> seen(kCoupons, false);
    std::uint64_t draws = 0;
    std::uint64_t distinct = 0;
    while (distinct < kCoupons) {
      ++draws;
      const auto c = rng::uniform_below(eng, kCoupons);
      if (!seen[c]) {
        seen[c] = true;
        ++distinct;
      }
    }
    if (static_cast<double>(draws) > threshold) ++exceeded;
  }
  EXPECT_LE(static_cast<double>(exceeded) / kSamples,
            dist::coupon_collector_tail(kCoupons, 1.5) + 0.01);
}

TEST(TailBounds, MaxOfExponentialsMean) {
  auto eng = rng::derive_stream(902, 0);
  constexpr int kVars = 64;
  constexpr int kSamples = 20000;
  double sum = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    double mx = 0.0;
    for (int i = 0; i < kVars; ++i) mx = std::max(mx, rng::exponential(eng, 2.0));
    sum += mx;
  }
  EXPECT_NEAR(sum / kSamples, dist::max_of_exponentials_mean(kVars, 2.0), 0.05);
}

// --- Known-law windows vs the engines -------------------------------------------

TEST(KnownBounds, StarSyncPushPull) {
  const auto w = analysis::star_sync_pushpull(256);
  sim::TrialConfig config;
  config.trials = 200;
  config.seed = 903;
  const auto sample = sim::measure_sync(graph::star(256), 1, core::Mode::kPushPull, config);
  EXPECT_TRUE(w.contains(sample.max())) << sample.max() << " vs " << w.law;
}

TEST(KnownBounds, StarAsyncMean) {
  const auto w = analysis::star_async_pushpull_mean(1024);
  sim::TrialConfig config;
  config.trials = 300;
  config.seed = 904;
  const auto sample = sim::measure_async(graph::star(1024), 1, core::Mode::kPushPull, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
}

TEST(KnownBounds, StarSyncPushCouponCollector) {
  const auto w = analysis::star_sync_push_mean(128);
  sim::TrialConfig config;
  config.trials = 100;
  config.seed = 905;
  const auto sample = sim::measure_sync(graph::star(128), 0, core::Mode::kPush, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
}

TEST(KnownBounds, CompleteSyncPushPull) {
  const auto w = analysis::complete_sync_pushpull_mean(512);
  sim::TrialConfig config;
  config.trials = 200;
  config.seed = 906;
  const auto sample = sim::measure_sync(graph::complete(512), 0, core::Mode::kPushPull, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
}

TEST(KnownBounds, CompleteSyncPush) {
  const auto w = analysis::complete_sync_push_mean(512);
  sim::TrialConfig config;
  config.trials = 200;
  config.seed = 907;
  const auto sample = sim::measure_sync(graph::complete(512), 0, core::Mode::kPush, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
}

TEST(KnownBounds, PathSyncPushPull) {
  const auto w = analysis::path_sync_pushpull_mean(200);
  sim::TrialConfig config;
  config.trials = 100;
  config.seed = 908;
  const auto sample = sim::measure_sync(graph::path(200), 0, core::Mode::kPushPull, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
}

TEST(KnownBounds, BundleChainSyncRounds) {
  const auto w = analysis::bundle_chain_sync_rounds(16, 64);
  sim::TrialConfig config;
  config.trials = 100;
  config.seed = 909;
  const auto sample =
      sim::measure_sync(graph::bundle_chain(16, 64), 0, core::Mode::kPushPull, config);
  EXPECT_TRUE(w.contains(sample.mean()))
      << sample.mean() << " not in [" << w.low << ", " << w.high << "] (" << w.law << ")";
  EXPECT_TRUE(w.contains(sample.quantile(0.99)));
}

TEST(KnownBounds, ConductanceBoundHolds) {
  auto gen_eng = rng::derive_stream(910, 0);
  for (const auto& g : {graph::cycle(256), graph::hypercube(8),
                        graph::random_regular(256, 4, gen_eng), graph::barbell(32, 0)}) {
    const double phi = graph::conductance_sweep(g);
    const auto w = analysis::conductance_bound(g.num_nodes(), phi);
    sim::TrialConfig config;
    config.trials = 150;
    config.seed = 911;
    const auto sample = sim::measure_sync(g, 0, core::Mode::kPushPull, config);
    const double hp = sample.quantile(1.0 - 1.0 / 150.0);
    EXPECT_LE(hp, w.high) << g.name() << ": " << hp << " vs " << w.law;
  }
}

// Theorem 1 transfer: the same conductance envelope holds for pp-a.
TEST(KnownBounds, ConductanceBoundTransfersToAsync) {
  auto gen_eng = rng::derive_stream(912, 0);
  for (const auto& g : {graph::cycle(256), graph::hypercube(8),
                        graph::random_regular(256, 4, gen_eng)}) {
    const double phi = graph::conductance_sweep(g);
    const auto w = analysis::conductance_bound(g.num_nodes(), phi);
    sim::TrialConfig config;
    config.trials = 150;
    config.seed = 913;
    const auto sample = sim::measure_async(g, 0, core::Mode::kPushPull, config);
    EXPECT_LE(sample.quantile(1.0 - 1.0 / 150.0), w.high) << g.name();
  }
}

// --- One-round semantics of the aux processes (Definitions 5 and 7) ------------

namespace {

/// One-round probe scenario for the Definition 5/7 pull formulas.
///
/// Probe = node 0 with degree d: its first k neighbors are informed at
/// round 0, and each of those has degree D (probe + D-1 pendant dummies),
/// so an informed neighbor's push hits the probe only with probability
/// 1/D. The remaining d-k probe neighbors are uninformed pendants. The
/// probability the probe is informed in round 1 is then exactly
///     1 - (1 - p_pull) * (1 - 1/D)^k
/// with p_pull from Definition 5/7; everything is analytic.
struct ProbeScenario {
  graph::Graph g;
  core::AuxOptions opts;
  std::uint32_t k;
  std::uint32_t big_degree;
};

ProbeScenario make_probe(std::uint32_t d, std::uint32_t k, std::uint32_t big_degree,
                         core::AuxKind kind) {
  const graph::NodeId n = 1 + d + k * (big_degree - 1);
  graph::GraphBuilder b(n);
  graph::NodeId next = 1 + d;  // dummies start after the probe's neighbors
  for (graph::NodeId i = 1; i <= d; ++i) {
    b.add_edge(0, i);
    if (i <= k) {
      for (std::uint32_t j = 0; j + 1 < big_degree; ++j) b.add_edge(i, next++);
    }
  }
  ProbeScenario s{std::move(b).build("probe"), {}, k, big_degree};
  s.opts.kind = kind;
  s.opts.max_ticks = 1;
  for (graph::NodeId i = 2; i <= k; ++i) s.opts.extra_sources.push_back(i);
  return s;  // run with source = node 1
}

double probe_inform_frequency(const ProbeScenario& s, std::uint64_t seed, int trials) {
  int informed = 0;
  for (int t = 0; t < trials; ++t) {
    auto eng = rumor::rng::derive_stream(seed, static_cast<std::uint64_t>(t));
    const auto r = core::run_aux(s.g, 1, eng, s.opts);
    if (r.informed_round[0] == 1) ++informed;
  }
  return static_cast<double>(informed) / trials;
}

double expected_inform_probability(std::uint32_t d, std::uint32_t k, std::uint32_t big_degree,
                                   double p_pull) {
  const double push_miss = std::pow(1.0 - 1.0 / static_cast<double>(big_degree), k);
  (void)d;
  return 1.0 - (1.0 - p_pull) * push_miss;
}

}  // namespace

TEST(AuxSemantics, PpyPullProbabilityMatchesFormula) {
  const std::uint32_t d = 10;
  const std::uint32_t big = 50;
  for (std::uint32_t k : {1u, 3u, 5u, 9u}) {
    const auto s = make_probe(d, k, big, core::AuxKind::kPpy);
    const double p_pull = -std::expm1(-2.0 * k / static_cast<double>(d));
    const double expected = expected_inform_probability(d, k, big, p_pull);
    EXPECT_NEAR(probe_inform_frequency(s, 914 + k, 40000), expected, 0.01) << "k=" << k;
  }
}

TEST(AuxSemantics, PpxForcesPullAtHalfDegree) {
  // k >= d/2: ppx pulls with probability 1 regardless of pushes.
  const auto s = make_probe(10, 5, 50, core::AuxKind::kPpx);
  EXPECT_DOUBLE_EQ(probe_inform_frequency(s, 915, 300), 1.0);
}

TEST(AuxSemantics, PpxBelowHalfMatchesPpyFormula) {
  const std::uint32_t d = 12;
  const std::uint32_t k = 3;
  const std::uint32_t big = 50;
  const auto s = make_probe(d, k, big, core::AuxKind::kPpx);
  const double p_pull = -std::expm1(-2.0 * k / static_cast<double>(d));
  const double expected = expected_inform_probability(d, k, big, p_pull);
  EXPECT_NEAR(probe_inform_frequency(s, 916, 40000), expected, 0.01);
}

// --- One-round semantics of pp itself -------------------------------------------

TEST(SyncSemantics, SingleUninformedNodePullProbability) {
  // Probe = hub of a star with k of d leaves informed: in pp, the hub
  // pulls iff its own contact lands on an informed leaf (probability k/d)
  // OR any informed leaf... leaves contact only the hub; informed leaves
  // *push* to the hub with probability 1 each. So the hub is informed in
  // round 1 with probability 1 whenever k >= 1. Use a 2-regular probe
  // instead: cycle of 4, node 2 informed, probe 0 (neighbors 1, 3
  // uninformed): probability 0. Inform 1: probe pulls w.p. 1/2 plus 1
  // pushes w.p. 1/2 -> 3/4.
  const auto g = graph::cycle(4);
  core::SyncOptions opts;
  opts.max_ticks = 1;
  constexpr int kTrials = 40000;
  int informed = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto eng = rng::derive_stream(917, static_cast<std::uint64_t>(t));
    const auto r = core::run_sync(g, 1, eng, opts);
    if (r.informed_round[0] == 1) ++informed;
  }
  EXPECT_NEAR(static_cast<double>(informed) / kTrials, 0.75, 0.01);
}

TEST(SyncSemantics, PushOnlyProbability) {
  // Same cycle, push-only: node 0 informed in round 1 only if node 1
  // pushes to it: probability 1/2.
  const auto g = graph::cycle(4);
  core::SyncOptions opts;
  opts.mode = core::Mode::kPush;
  opts.max_ticks = 1;
  constexpr int kTrials = 40000;
  int informed = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto eng = rng::derive_stream(918, static_cast<std::uint64_t>(t));
    const auto r = core::run_sync(g, 1, eng, opts);
    if (r.informed_round[0] == 1) ++informed;
  }
  EXPECT_NEAR(static_cast<double>(informed) / kTrials, 0.5, 0.01);
}

TEST(SyncSemantics, PullOnlyProbability) {
  // Pull-only: node 0 informed in round 1 only if it contacts node 1: 1/2.
  const auto g = graph::cycle(4);
  core::SyncOptions opts;
  opts.mode = core::Mode::kPull;
  opts.max_ticks = 1;
  constexpr int kTrials = 40000;
  int informed = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto eng = rng::derive_stream(919, static_cast<std::uint64_t>(t));
    const auto r = core::run_sync(g, 1, eng, opts);
    if (r.informed_round[0] == 1) ++informed;
  }
  EXPECT_NEAR(static_cast<double>(informed) / kTrials, 0.5, 0.01);
}
