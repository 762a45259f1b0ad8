// CurveAccumulator tests: the mergeable per-grid-point reduction behind
// campaign spread telemetry (stats/curves.hpp). Mirrors the
// StreamingEmptyState suite's bit-level contracts — sharded campaigns
// legally produce curve partials that saw zero trials, and
// checkpoint/resume/merge folds restored states — plus the grid-alignment
// contract: folding block partials of different trial counts in slot order
// is bit-identical to one sequential pass in trial order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "stats/curves.hpp"

using namespace rumor;
using stats::ContactTotals;
using stats::CurveAccumulator;

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Deterministic synthetic informed-count curve for trial `i`: monotone,
/// integer-valued, starting at 1 and absorbing at `n`, with trial-dependent
/// length and growth so partials carry distinct state.
std::vector<double> synthetic_curve(std::size_t i, double n) {
  std::vector<double> curve{1.0};
  const std::size_t growth = 1 + i % 4;
  while (curve.back() < n) {
    const double next =
        std::min(n, curve.back() + static_cast<double>(1 + (i + curve.size() * growth) % 7));
    curve.push_back(next);
  }
  // A couple of absorbing tail points, length varying by trial.
  for (std::size_t k = 0; k < i % 3; ++k) curve.push_back(n);
  return curve;
}

void expect_same_state(const CurveAccumulator::State& a, const CurveAccumulator::State& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.max_len, b.max_len);
  ASSERT_EQ(a.moments.size(), b.moments.size());
  for (std::size_t k = 0; k < a.moments.size(); ++k) {
    EXPECT_EQ(a.moments[k].count, b.moments[k].count) << "grid point " << k;
    EXPECT_EQ(bits(a.moments[k].mean), bits(b.moments[k].mean)) << "grid point " << k;
    EXPECT_EQ(bits(a.moments[k].m2), bits(b.moments[k].m2)) << "grid point " << k;
    EXPECT_EQ(bits(a.moments[k].min), bits(b.moments[k].min)) << "grid point " << k;
    EXPECT_EQ(bits(a.moments[k].max), bits(b.moments[k].max)) << "grid point " << k;
  }
  ASSERT_EQ(a.sketches.size(), b.sketches.size());
  for (std::size_t k = 0; k < a.sketches.size(); ++k) {
    EXPECT_EQ(a.sketches[k].count, b.sketches[k].count) << "grid point " << k;
    ASSERT_EQ(a.sketches[k].levels.size(), b.sketches[k].levels.size()) << "grid point " << k;
    for (std::size_t l = 0; l < a.sketches[k].levels.size(); ++l) {
      EXPECT_EQ(a.sketches[k].levels[l].keep_odd, b.sketches[k].levels[l].keep_odd);
      ASSERT_EQ(a.sketches[k].levels[l].items.size(), b.sketches[k].levels[l].items.size());
      for (std::size_t j = 0; j < a.sketches[k].levels[l].items.size(); ++j) {
        EXPECT_EQ(bits(a.sketches[k].levels[l].items[j]), bits(b.sketches[k].levels[l].items[j]));
      }
    }
  }
}

}  // namespace

// --- Grid semantics ----------------------------------------------------------

TEST(CurveGrid, ShortCurvesExtendWithAbsorbingValueLongOnesAreCut) {
  CurveAccumulator acc({.points = 8});
  acc.add({1.0, 3.0, 6.0});                                      // shorter than grid
  acc.add({1.0, 2.0, 4.0, 5.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0});  // longer than grid

  EXPECT_EQ(acc.trials(), 2u);
  EXPECT_EQ(acc.points(), 8u);
  EXPECT_EQ(acc.max_len(), 10u);  // longest native curve, not the grid length
  // Point 1 sees both curves' native values; point 5 sees the short
  // curve's absorbing 6.0 against the long curve's native 6.0.
  EXPECT_EQ(acc.mean_at(0), 1.0);
  EXPECT_EQ(acc.mean_at(1), 2.5);
  EXPECT_EQ(acc.mean_at(5), 6.0);
  EXPECT_EQ(acc.mean_at(7), 6.0);
  // Exact per-point quantiles while under sketch capacity.
  EXPECT_EQ(acc.quantile_at(2, 0.0), 4.0);
  EXPECT_EQ(acc.quantile_at(2, 1.0), 6.0);

  EXPECT_THROW(acc.add({}), std::invalid_argument);
}

TEST(CurveGrid, MergeRejectsMismatchedGrids) {
  CurveAccumulator a({.points = 8});
  CurveAccumulator b({.points = 16});
  a.add({1.0, 2.0});
  b.add({1.0, 2.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- Grid-aligned partial folding (the campaign block contract) --------------

TEST(CurveGrid, FoldingPartialsAtDifferentTrialCountsIsDeterministicAndExact) {
  const CurveAccumulator::Options options{.points = 24, .sketch_capacity = 64};
  constexpr std::size_t kTrials = 40;
  constexpr double kN = 64.0;

  CurveAccumulator sequential(options);
  for (std::size_t i = 0; i < kTrials; ++i) sequential.add(synthetic_curve(i, kN));

  // An uneven block partition (trial counts 3, 17, 1, 19) folded in slot
  // order: integer components (trial count, max_len, per-point min/max and
  // sample counts) are exactly the sequential pass's, and the Welford
  // moments agree up to floating-point associativity (the same 1e-12
  // contract StreamingMoments asserts).
  auto fold = [&] {
    const std::size_t cuts[] = {0, 3, 20, 21, kTrials};
    CurveAccumulator folded(options);
    for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
      CurveAccumulator partial(options);
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) partial.add(synthetic_curve(i, kN));
      folded.merge(partial);
    }
    return folded;
  };
  const CurveAccumulator folded = fold();
  EXPECT_EQ(folded.trials(), sequential.trials());
  EXPECT_EQ(folded.max_len(), sequential.max_len());
  for (std::size_t k = 0; k < folded.points(); ++k) {
    EXPECT_EQ(folded.moments_at(k).count(), sequential.moments_at(k).count());
    EXPECT_EQ(folded.moments_at(k).min(), sequential.moments_at(k).min()) << "grid point " << k;
    EXPECT_EQ(folded.moments_at(k).max(), sequential.moments_at(k).max()) << "grid point " << k;
    EXPECT_NEAR(folded.mean_at(k), sequential.mean_at(k), 1e-12 * (1.0 + sequential.mean_at(k)))
        << "grid point " << k;
    EXPECT_NEAR(folded.stddev_at(k), sequential.stddev_at(k), 1e-12 * kN) << "grid point " << k;
  }

  // The fold itself is a pure function of the partials: repeating it gives
  // a bit-identical accumulator — the property behind thread-count
  // independence (the block partition, not the fold, fixes the grouping).
  expect_same_state(fold().state(), folded.state());
}

// --- Empty-state contract & checkpoint round-trips ---------------------------

TEST(CurveEmptyState, MergingAnEmptyOperandIsAnExactIdentityBothWays) {
  const CurveAccumulator::Options options{.points = 16, .sketch_capacity = 32};
  CurveAccumulator full(options);
  for (std::size_t i = 0; i < 50; ++i) full.add(synthetic_curve(i, 32.0));
  const auto before = full.state();

  // nonempty.merge(empty): bit-identical state afterwards.
  full.merge(CurveAccumulator(options));
  expect_same_state(full.state(), before);

  // empty.merge(nonempty): adopts the other verbatim (a shard that owned
  // zero blocks of this configuration).
  CurveAccumulator adopted(options);
  adopted.merge(full);
  expect_same_state(adopted.state(), before);
  EXPECT_EQ(adopted.max_len(), full.max_len());
}

TEST(CurveEmptyState, StateRoundTripsBitExactlyThroughRestore) {
  // Push past sketch capacity so compaction levels carry non-trivial state.
  const CurveAccumulator::Options options{.points = 12, .sketch_capacity = 16};
  CurveAccumulator original(options);
  for (std::size_t i = 0; i < 200; ++i) original.add(synthetic_curve(i, 48.0));

  const CurveAccumulator copy = CurveAccumulator::restored(options, original.state());
  expect_same_state(copy.state(), original.state());
  for (std::size_t k = 0; k < copy.points(); ++k) {
    EXPECT_EQ(bits(copy.mean_at(k)), bits(original.mean_at(k)));
    EXPECT_EQ(bits(copy.stddev_at(k)), bits(original.stddev_at(k)));
    for (double q : {0.1, 0.5, 0.9}) {
      EXPECT_EQ(bits(copy.quantile_at(k, q)), bits(original.quantile_at(k, q)));
    }
  }

  // Restored accumulators must also *continue* identically: same future
  // adds produce the same future state (the resume contract in miniature).
  CurveAccumulator a = original;
  CurveAccumulator b = CurveAccumulator::restored(options, original.state());
  for (std::size_t i = 200; i < 260; ++i) {
    a.add(synthetic_curve(i, 48.0));
    b.add(synthetic_curve(i, 48.0));
  }
  expect_same_state(a.state(), b.state());

  // An *empty* state round-trips too, and a grid mismatch is rejected.
  const CurveAccumulator empty(options);
  expect_same_state(CurveAccumulator::restored(options, empty.state()).state(), empty.state());
  EXPECT_THROW(CurveAccumulator::restored({.points = 13}, original.state()),
               std::invalid_argument);
}

// --- Contact totals ----------------------------------------------------------

TEST(ContactTotalsTest, MergeIsExactFieldWiseAddition) {
  ContactTotals a{.contacts = 100, .useful_push = 10, .useful_pull = 20, .wasted_push = 30,
                  .wasted_pull = 25, .empty_contacts = 15, .ticks = 40, .informed_total = 31};
  const ContactTotals b{.contacts = 7, .useful_push = 1, .useful_pull = 2, .wasted_push = 1,
                        .wasted_pull = 1, .empty_contacts = 2, .ticks = 3, .informed_total = 4};
  a.merge(b);
  EXPECT_EQ(a.contacts, 107u);
  EXPECT_EQ(a.useful_push, 11u);
  EXPECT_EQ(a.useful_pull, 22u);
  EXPECT_EQ(a.wasted_push, 31u);
  EXPECT_EQ(a.wasted_pull, 26u);
  EXPECT_EQ(a.empty_contacts, 17u);
  EXPECT_EQ(a.ticks, 43u);
  EXPECT_EQ(a.informed_total, 35u);
}

// --- Checkpoint codecs -------------------------------------------------------

namespace {

/// Encode, render, parse, decode and encode again: both renderings must be
/// the same text. Returns the decoded value for field-wise checks.
template <class T>
T through_json(const T& value) {
  const std::string text = value.to_json().dump(2);
  const auto doc = json::Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  T back = T::from_json(doc.value_or(json::Json()), "codec");
  EXPECT_EQ(back.to_json().dump(2), text);
  return back;
}

}  // namespace

TEST(ContactTotalsTest, CodecRoundTripsCountsUpTo2To53InOneKeyOrder) {
  constexpr std::uint64_t kTwoTo53 = std::uint64_t{1} << 53;
  const ContactTotals t{.contacts = kTwoTo53, .useful_push = 0, .useful_pull = 1,
                        .wasted_push = kTwoTo53 - 1, .wasted_pull = 25, .empty_contacts = 15,
                        .ticks = 40, .informed_total = 31};
  EXPECT_EQ(t.to_json().dump(),
            "{\"contacts\":9007199254740992,\"useful_push\":0,\"useful_pull\":1,"
            "\"wasted_push\":9007199254740991,\"wasted_pull\":25,\"empty_contacts\":15,"
            "\"ticks\":40,\"informed_total\":31}");
  const ContactTotals back = through_json(t);
  EXPECT_EQ(back.contacts, t.contacts);
  EXPECT_EQ(back.useful_push, t.useful_push);
  EXPECT_EQ(back.useful_pull, t.useful_pull);
  EXPECT_EQ(back.wasted_push, t.wasted_push);
  EXPECT_EQ(back.wasted_pull, t.wasted_pull);
  EXPECT_EQ(back.empty_contacts, t.empty_contacts);
  EXPECT_EQ(back.ticks, t.ticks);
  EXPECT_EQ(back.informed_total, t.informed_total);
  try {
    (void)ContactTotals::from_json(*json::Json::parse(R"({"contacts": 1})"), "ctx");
    FAIL() << "a partial object decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "ctx: missing key 'useful_push'");
  }
}

TEST(CurveCodec, CurveStateRoundTripsBitExactly) {
  const CurveAccumulator::Options options{.points = 6, .sketch_capacity = 8};
  CurveAccumulator acc(options);
  for (std::size_t i = 0; i < 40; ++i) acc.add(synthetic_curve(i, 24.0));
  CurveAccumulator::State s = acc.state();
  s.trials = std::uint64_t{1} << 53;
  s.moments.push_back({std::uint64_t{1} << 53, -0.0, 4.9406564584124654e-324, -1.0, 1.0});
  s.sketches.push_back({7, {{{-0.0, 1.7976931348623157e308}, true}}});
  expect_same_state(through_json(s), s);
  expect_same_state(through_json(CurveAccumulator::State{}), CurveAccumulator::State{});
}
