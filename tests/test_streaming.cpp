// Streaming-accumulator tests: the mergeable fixed-memory reductions that
// campaign sweeps use in place of full sample vectors (stats/streaming.hpp).
//
// Error tolerances asserted here are the module's documented contract:
//   * RunningMoments merge — exact up to floating-point associativity
//     (asserted to 1e-12 relative against the sequential pass);
//   * QuantileSketch (k = 256) — rank error under 2% of n for n up to 5e4,
//     including after 8-way merges (the deterministic alternating compactor
//     does far better than its worst-case bound; 2% is the asserted
//     ceiling), and *exact* type-1 quantiles while n <= k;
//   * ReservoirSample — contents are a pure function of the inserted
//     (tag, value) set: identical across insertion orders and merge shapes,
//     exhaustive when capacity >= n, and uniform (fraction tests below).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributions.hpp"
#include "rng/rng.hpp"
#include "stats/streaming.hpp"
#include "stats/summary.hpp"

using namespace rumor;
using stats::QuantileSketch;
using stats::ReservoirSample;
using stats::RunningMoments;
using stats::StreamingSummary;

namespace {

std::vector<double> exponential_samples(std::size_t n, std::uint64_t seed) {
  const dist::Exponential law(1.0);
  auto eng = rng::derive_stream(seed, 0);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(law.sample(eng));
  return out;
}

/// Empirical rank (fraction of samples <= x) of `x` in `sorted`.
double rank_of(const std::vector<double>& sorted, double x) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) / static_cast<double>(sorted.size());
}

constexpr double kRankTolerance = 0.02;  // the documented sketch ceiling at k=256

}  // namespace

// --- RunningMoments::merge ---------------------------------------------------

TEST(StreamingMoments, MergeMatchesSequentialAccumulation) {
  const auto samples = exponential_samples(10'000, 21);
  RunningMoments sequential;
  for (double x : samples) sequential.add(x);

  // Partition into uneven chunks, accumulate separately, merge in order.
  RunningMoments merged;
  const std::size_t cuts[] = {0, 17, 1000, 1001, 6000, samples.size()};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    RunningMoments part;
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) part.add(samples[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12 * std::abs(sequential.mean()));
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-10 * sequential.variance());
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
}

// --- QuantileSketch ----------------------------------------------------------

TEST(StreamingSketch, ExactWhileUnderCapacity) {
  // With n <= k nothing is ever compacted — including n == k exactly, the
  // boundary the experiment notes advertise — so the sketch must return
  // the exact type-1 quantile (bitwise equal to quantile_sorted).
  for (std::size_t n : {std::size_t{200}, std::size_t{256}}) {
    auto samples = exponential_samples(n, 22);
    QuantileSketch sketch(256);
    for (double x : samples) sketch.add(x);
    EXPECT_EQ(sketch.stored(), n);
    std::sort(samples.begin(), samples.end());
    for (double q : {0.0, 0.05, 0.25, 0.5, 0.9, 0.95, 1.0}) {
      EXPECT_EQ(sketch.quantile(q), stats::quantile_sorted(samples, q)) << "n=" << n << " q=" << q;
    }
  }
}

TEST(StreamingSketch, RankErrorBoundedOnLargeStream) {
  auto samples = exponential_samples(50'000, 23);
  QuantileSketch sketch(256);
  for (double x : samples) sketch.add(x);
  EXPECT_EQ(sketch.count(), samples.size());

  std::sort(samples.begin(), samples.end());
  for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double estimate = sketch.quantile(q);
    EXPECT_NEAR(rank_of(samples, estimate), q, kRankTolerance) << "q=" << q;
  }
}

TEST(StreamingSketch, MergeKeepsRankErrorBounded) {
  // 8-way split/merge (the campaign's block-partial shape).
  auto samples = exponential_samples(40'000, 24);
  std::vector<QuantileSketch> parts(8, QuantileSketch(256));
  for (std::size_t i = 0; i < samples.size(); ++i) parts[i % 8].add(samples[i]);
  QuantileSketch merged = parts[0];
  for (std::size_t p = 1; p < parts.size(); ++p) merged.merge(parts[p]);
  EXPECT_EQ(merged.count(), samples.size());

  std::sort(samples.begin(), samples.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double estimate = merged.quantile(q);
    EXPECT_NEAR(rank_of(samples, estimate), q, kRankTolerance) << "q=" << q;
  }
}

TEST(StreamingSketch, MemoryStaysLogarithmic) {
  const std::size_t k = 64;
  QuantileSketch sketch(k);
  const std::size_t n = 100'000;
  auto eng = rng::derive_stream(25, 0);
  for (std::size_t i = 0; i < n; ++i) sketch.add(rng::uniform01(eng));
  // Capacity-k buffers over ~log2(n/k) levels; assert the documented
  // envelope with one level of slack, far below the n samples it digested.
  const double levels = std::log2(static_cast<double>(n) / static_cast<double>(k)) + 2.0;
  EXPECT_LE(sketch.stored(), static_cast<std::size_t>(levels) * k);
}

// --- ReservoirSample ---------------------------------------------------------

TEST(StreamingReservoir, ContentsIndependentOfInsertionOrderAndMergeShape) {
  const auto samples = exponential_samples(2'000, 26);
  const std::size_t capacity = 100;

  ReservoirSample forward(capacity, 7);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    forward.add(samples[i], i);
  }
  ReservoirSample backward(capacity, 7);
  for (std::size_t i = samples.size(); i-- > 0;) {
    backward.add(samples[i], i);
  }
  ReservoirSample merged(capacity, 7);
  for (std::size_t chunk = 0; chunk < 4; ++chunk) {
    ReservoirSample part(capacity, 7);
    for (std::size_t i = chunk; i < samples.size(); i += 4) part.add(samples[i], i);
    merged.merge(part);
  }

  EXPECT_EQ(forward.entries(), backward.entries());
  EXPECT_EQ(forward.entries(), merged.entries());
  EXPECT_EQ(forward.count(), samples.size());
  EXPECT_EQ(forward.size(), capacity);
}

TEST(StreamingReservoir, RetainsEverythingUnderCapacity) {
  const auto samples = exponential_samples(300, 27);
  ReservoirSample reservoir(512, 1);
  for (std::size_t i = 0; i < samples.size(); ++i) reservoir.add(samples[i], i);
  ASSERT_EQ(reservoir.size(), samples.size());
  // values() orders by tag, i.e. insertion index — the exact sample vector.
  EXPECT_EQ(reservoir.values(), samples);
}

TEST(StreamingReservoir, SampleIsRoughlyUniform) {
  // Keep 400 of 4000 tagged values; the kept fraction from the first half
  // of the tag range is Binomial(400, 1/2)/400, so +-8% covers ~3 sigma.
  const std::size_t n = 4'000;
  ReservoirSample reservoir(400, 3);
  for (std::size_t i = 0; i < n; ++i) reservoir.add(static_cast<double>(i), i);
  std::size_t first_half = 0;
  for (const auto& [tag, value] : reservoir.entries()) {
    if (tag < n / 2) ++first_half;
  }
  const double fraction = static_cast<double>(first_half) / 400.0;
  EXPECT_NEAR(fraction, 0.5, 0.08);
}

// --- StreamingSummary --------------------------------------------------------

TEST(StreamingSummaryTest, AgreesWithExactSummaryOnSmallStreams) {
  // Under both sketch and reservoir capacity, every statistic the campaign
  // reports must coincide with the exact full-sample computation.
  auto samples = exponential_samples(250, 28);

  StreamingSummary::Options options;
  options.sketch_capacity = 256;
  options.reservoir_capacity = 512;
  StreamingSummary summary(options);
  for (std::size_t i = 0; i < samples.size(); ++i) summary.add(samples[i], i);

  RunningMoments exact_moments;
  for (double x : samples) exact_moments.add(x);
  std::sort(samples.begin(), samples.end());

  EXPECT_EQ(summary.count(), exact_moments.count());
  EXPECT_DOUBLE_EQ(summary.mean(), exact_moments.mean());
  EXPECT_DOUBLE_EQ(summary.stddev(), exact_moments.stddev());
  EXPECT_EQ(summary.min(), exact_moments.min());
  EXPECT_EQ(summary.max(), exact_moments.max());
  EXPECT_EQ(summary.median(), stats::quantile_sorted(samples, 0.5));
  EXPECT_EQ(summary.quantile(0.95), stats::quantile_sorted(samples, 0.95));
  EXPECT_EQ(summary.hp_time(0.05), stats::quantile_sorted(samples, 0.95));

  // The bootstrap CI resamples the (here exhaustive) reservoir sorted by
  // value — bit-identical to bootstrapping the sorted sample vector.
  const auto streamed_ci = summary.mean_ci();
  const auto exact_ci = stats::bootstrap_mean_ci(samples, 0.95, 400, 7);
  EXPECT_EQ(streamed_ci.lower, exact_ci.lower);
  EXPECT_EQ(streamed_ci.point, exact_ci.point);
  EXPECT_EQ(streamed_ci.upper, exact_ci.upper);
}

TEST(StreamingSummaryTest, MergePreservesEveryComponent) {
  const auto samples = exponential_samples(5'000, 29);
  StreamingSummary whole;
  std::vector<StreamingSummary> parts(4);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.add(samples[i], i);
    parts[i % 4].add(samples[i], i);
  }
  StreamingSummary merged = parts[0];
  for (std::size_t p = 1; p < parts.size(); ++p) merged.merge(parts[p]);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12 * whole.mean());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  // Same multiset of (tag, value): identical bottom-k reservoir contents.
  EXPECT_EQ(merged.reservoir().entries(), whole.reservoir().entries());
  // Sketch states differ (different compaction history) but both stay
  // within the documented rank tolerance of the exact quantile.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.25, 0.5, 0.9}) {
    EXPECT_NEAR(rank_of(sorted, merged.quantile(q)), q, kRankTolerance);
  }
}

// --- Empty-state contract & checkpoint round-trips ---------------------------
//
// Sharded campaigns legally produce accumulators that saw zero samples (a
// shard may own no blocks of a configuration), and checkpoint/resume folds
// restored states. Both contracts are bit-level: "no data" must surface as
// NaN, never a fabricated number, and state()/restore() must round-trip
// every observable exactly.

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void expect_same_state(const StreamingSummary::State& a, const StreamingSummary::State& b) {
  EXPECT_EQ(a.moments.count, b.moments.count);
  EXPECT_EQ(bits(a.moments.mean), bits(b.moments.mean));
  EXPECT_EQ(bits(a.moments.m2), bits(b.moments.m2));
  EXPECT_EQ(bits(a.moments.min), bits(b.moments.min));
  EXPECT_EQ(bits(a.moments.max), bits(b.moments.max));
  EXPECT_EQ(a.sketch.count, b.sketch.count);
  ASSERT_EQ(a.sketch.levels.size(), b.sketch.levels.size());
  for (std::size_t l = 0; l < a.sketch.levels.size(); ++l) {
    EXPECT_EQ(a.sketch.levels[l].keep_odd, b.sketch.levels[l].keep_odd) << "level " << l;
    ASSERT_EQ(a.sketch.levels[l].items.size(), b.sketch.levels[l].items.size()) << "level " << l;
    for (std::size_t i = 0; i < a.sketch.levels[l].items.size(); ++i) {
      EXPECT_EQ(bits(a.sketch.levels[l].items[i]), bits(b.sketch.levels[l].items[i]));
    }
  }
  EXPECT_EQ(a.reservoir.count, b.reservoir.count);
  EXPECT_EQ(a.reservoir.entries, b.reservoir.entries);
}

}  // namespace

TEST(StreamingEmptyState, QuantilesAndBootstrapAreNaNOnZeroSamples) {
  const QuantileSketch sketch(256);
  EXPECT_TRUE(std::isnan(sketch.quantile(0.5)));
  EXPECT_TRUE(std::isnan(sketch.hp_time(0.05)));

  const StreamingSummary summary;
  EXPECT_EQ(summary.count(), 0u);
  EXPECT_TRUE(std::isnan(summary.median()));
  EXPECT_TRUE(std::isnan(summary.quantile(0.95)));
  EXPECT_TRUE(std::isnan(summary.hp_time(0.05)));
  const auto ci = summary.mean_ci();
  EXPECT_TRUE(std::isnan(ci.lower));
  EXPECT_TRUE(std::isnan(ci.point));
  EXPECT_TRUE(std::isnan(ci.upper));
}

TEST(StreamingEmptyState, MergingAnEmptyOperandIsAnExactIdentityBothWays) {
  const auto samples = exponential_samples(300, 31);
  StreamingSummary::Options options;
  options.reservoir_salt = 9;
  StreamingSummary full(options);
  for (std::size_t i = 0; i < samples.size(); ++i) full.add(samples[i], i);
  const auto before = full.state();

  // nonempty.merge(empty): bit-identical state afterwards — in particular
  // the sketch must not grow levels and the reservoir must keep capacity.
  full.merge(StreamingSummary(options));
  expect_same_state(full.state(), before);

  // empty.merge(nonempty): adopts the other verbatim.
  StreamingSummary adopted(options);
  adopted.merge(full);
  expect_same_state(adopted.state(), before);
}

TEST(StreamingEmptyState, StateRoundTripsBitExactlyThroughRestore) {
  // Push well past both capacities so levels, compaction selectors, and the
  // reservoir heap all carry non-trivial state.
  const auto samples = exponential_samples(5'000, 33);
  StreamingSummary::Options options;
  options.sketch_capacity = 128;
  options.reservoir_capacity = 64;
  options.reservoir_salt = 17;
  StreamingSummary original(options);
  for (std::size_t i = 0; i < samples.size(); ++i) original.add(samples[i], i);

  const StreamingSummary copy = StreamingSummary::restored(options, original.state());
  expect_same_state(copy.state(), original.state());
  EXPECT_EQ(bits(copy.mean()), bits(original.mean()));
  EXPECT_EQ(bits(copy.stddev()), bits(original.stddev()));
  for (double q : {0.05, 0.5, 0.95}) {
    EXPECT_EQ(bits(copy.quantile(q)), bits(original.quantile(q)));
  }
  const auto ci0 = original.mean_ci();
  const auto ci1 = copy.mean_ci();
  EXPECT_EQ(bits(ci0.lower), bits(ci1.lower));
  EXPECT_EQ(bits(ci0.point), bits(ci1.point));
  EXPECT_EQ(bits(ci0.upper), bits(ci1.upper));

  // Restored summaries must also *continue* identically: same future adds
  // produce the same future state (the resume contract in miniature).
  StreamingSummary a = original;
  StreamingSummary b = StreamingSummary::restored(options, original.state());
  for (std::uint64_t t = 9'000; t < 9'100; ++t) {
    a.add(static_cast<double>(t % 13), t);
    b.add(static_cast<double>(t % 13), t);
  }
  expect_same_state(a.state(), b.state());

  // An *empty* state round-trips too (a resumed shard that owned nothing).
  const StreamingSummary empty(options);
  const StreamingSummary empty_copy = StreamingSummary::restored(options, empty.state());
  expect_same_state(empty_copy.state(), empty.state());
  EXPECT_TRUE(std::isnan(empty_copy.median()));
}

namespace {

/// The bootstrap's draw loop without an index table: every resample draws
/// its indices afresh from derive_stream(seed, 0xb007). The oracle
/// bootstrap_mean_ci and StreamingSummary::mean_ci must match bit for bit.
stats::BootstrapInterval direct_mean_ci(std::span<const double> samples, double confidence,
                                        std::size_t resamples, std::uint64_t seed) {
  auto mean = [](std::span<const double> s) {
    double sum = 0.0;
    for (double x : s) sum += x;
    return sum / static_cast<double>(s.size());
  };
  rng::Engine eng = rng::derive_stream(seed, 0xb007ULL);
  std::vector<double> resample(samples.size());
  std::vector<double> estimates;
  for (std::size_t r = 0; r < resamples; ++r) {
    for (auto& x : resample) {
      x = samples[static_cast<std::size_t>(rng::uniform_below(eng, samples.size()))];
    }
    estimates.push_back(mean(resample));
  }
  std::sort(estimates.begin(), estimates.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return {stats::quantile_sorted(estimates, alpha), mean(samples),
          stats::quantile_sorted(estimates, 1.0 - alpha)};
}

bool bit_equal(const stats::BootstrapInterval& a, const stats::BootstrapInterval& b) {
  return std::bit_cast<std::uint64_t>(a.lower) == std::bit_cast<std::uint64_t>(b.lower) &&
         std::bit_cast<std::uint64_t>(a.point) == std::bit_cast<std::uint64_t>(b.point) &&
         std::bit_cast<std::uint64_t>(a.upper) == std::bit_cast<std::uint64_t>(b.upper);
}

struct BootstrapCase {
  std::size_t size;
  std::size_t resamples;
  std::uint64_t seed;
};

/// Sizes up to the default reservoir cap, where the index table is kept,
/// and one past what a kept table may hold (1000 x 400 indices), which
/// draws row by row; both seeds of each (size, resamples) back to back.
std::vector<BootstrapCase> bootstrap_cases() {
  std::vector<BootstrapCase> cases;
  for (std::size_t size : {1, 2, 64, 256, 512, 1000}) {
    for (std::size_t resamples : {1, 400}) {
      for (std::uint64_t seed : {7u, 1234u}) cases.push_back({size, resamples, seed});
    }
  }
  return cases;
}

std::string label(const BootstrapCase& c) {
  return "size " + std::to_string(c.size) + ", resamples " + std::to_string(c.resamples) +
         ", seed " + std::to_string(c.seed);
}

}  // namespace

TEST(BootstrapTable, MeanCiEqualsTheDirectDrawLoopColdAndWarm) {
  const std::vector<double> data = exponential_samples(1000, 77);
  const std::vector<BootstrapCase> cases = bootstrap_cases();
  // Three passes: the first meets every table cold, the second warm for
  // the keys still kept, the third after the others were evicted.
  for (int pass = 0; pass < 3; ++pass) {
    for (const BootstrapCase& c : cases) {
      const std::span<const double> samples(data.data(), c.size);
      const auto expected = direct_mean_ci(samples, 0.95, c.resamples, c.seed);
      EXPECT_TRUE(bit_equal(stats::bootstrap_mean_ci(samples, 0.95, c.resamples, c.seed),
                            expected))
          << label(c) << ", pass " << pass;
      // Immediately again: a warm table.
      EXPECT_TRUE(bit_equal(stats::bootstrap_mean_ci(samples, 0.95, c.resamples, c.seed),
                            expected))
          << label(c) << ", pass " << pass << " (repeat)";
    }
  }
}

TEST(BootstrapTable, StreamingSummaryMeanCiEqualsTheDirectDrawLoop) {
  for (const BootstrapCase& c : bootstrap_cases()) {
    if (c.size > 512) continue;  // the reservoir keeps every sample up to its cap
    StreamingSummary summary;
    std::vector<double> values = exponential_samples(c.size, 91 + c.size);
    for (std::size_t i = 0; i < values.size(); ++i) summary.add(values[i], i);
    std::sort(values.begin(), values.end());
    const auto expected = direct_mean_ci(values, 0.95, c.resamples, c.seed);
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_TRUE(bit_equal(summary.mean_ci(0.95, c.resamples, c.seed), expected))
          << label(c) << ", repeat " << repeat;
    }
  }
}

TEST(BootstrapTable, FourThreadsAtOnceSeeTheDirectDrawLoop) {
  const std::vector<double> data = exponential_samples(1000, 78);
  const std::vector<BootstrapCase> cases = bootstrap_cases();
  std::vector<stats::BootstrapInterval> expected;
  for (const BootstrapCase& c : cases) {
    expected.push_back(direct_mean_ci({data.data(), c.size}, 0.95, c.resamples, c.seed));
  }
  // Each thread walks the cases from its own offset, so tables are drawn,
  // shared and evicted while others read them.
  std::vector<std::vector<char>> ok(4, std::vector<char>(cases.size(), 0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const std::size_t i = (k + t * 5) % cases.size();
          const BootstrapCase& c = cases[i];
          const auto got = stats::bootstrap_mean_ci({data.data(), c.size}, 0.95, c.resamples,
                                                    c.seed);
          const bool before = round == 0 || ok[t][i] != 0;
          ok[t][i] = static_cast<char>(before && bit_equal(got, expected[i]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_NE(ok[t][i], 0) << "thread " << t << ": " << label(cases[i]);
    }
  }
}
