// Acceptance tests for the fast engine cores (PR 5): the word-packed
// InformedSet sync engine and the calendar EventQueue per-edge async view
// must be *bit-identical* to the retained reference engines — same results,
// same randomness consumption (verified through the engine state), across
// graph families, seeds, modes, loss, multi-source, and dynamics overlays —
// and the campaign contract (summaries identical at threads 1/2/8) must
// hold on the new cores. Plus unit tests for the two containers themselves,
// including the FIFO tie rule no real workload can reach, and pinned
// digests of every specialization of the sync round loop and the async
// global-clock tick loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/event_queue.hpp"
#include "core/informed_set.hpp"
#include "core/sync.hpp"
#include "dynamics/alias.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/weights.hpp"
#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "support/reference_engines.hpp"

using namespace rumor;
using core::Mode;

namespace {

std::vector<graph::Graph> fastpath_families() {
  auto gen = rng::derive_stream(99, 0);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::complete(48));
  graphs.push_back(graph::star(65));          // irregular, hub-dominated
  graphs.push_back(graph::path(70));          // long diameter: many rounds
  graphs.push_back(graph::cycle(64));         // regular, degree 2
  graphs.push_back(graph::hypercube(6));      // regular: the stride fast path
  graphs.push_back(graph::torus(8));          // regular
  graphs.push_back(graph::random_regular(96, 5, gen));
  graphs.push_back(graph::erdos_renyi(128, 0.06, gen));
  graphs.push_back(graph::preferential_attachment(128, 3, gen));
  return graphs;
}

/// Full bit-for-bit comparison of two sync results.
void expect_sync_equal(const core::SyncResult& a, const core::SyncResult& b,
                       const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.informed_round, b.informed_round) << label;
  EXPECT_EQ(a.informed_count_history, b.informed_count_history) << label;
}

/// Full bit-for-bit comparison of two async results (double == is exact).
void expect_async_equal(const core::AsyncResult& a, const core::AsyncResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.informed_time, b.informed_time) << label;
}

}  // namespace

// --- InformedSet -------------------------------------------------------------

TEST(InformedSet, TestSetResetAcrossWordBoundaries) {
  core::InformedSet s(130);
  for (graph::NodeId v : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(s.test(v)) << v;
    EXPECT_TRUE(s.test_and_set(v)) << v;
    EXPECT_TRUE(s.test(v)) << v;
    EXPECT_FALSE(s.test_and_set(v)) << v;  // second set reports not-new
  }
  EXPECT_EQ(s.count(), 8u);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 7u);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.size(), 130u);
}

TEST(InformedSet, ForEachVisitsSetBitsAscending) {
  core::InformedSet s(200);
  const std::vector<graph::NodeId> members = {0, 3, 63, 64, 100, 128, 199};
  for (graph::NodeId v : members) s.set(v);
  std::vector<graph::NodeId> seen;
  s.for_each([&](graph::NodeId v) { seen.push_back(v); });
  EXPECT_EQ(seen, members);
}

TEST(InformedSet, AbsorbDrainReportsExactlyTheNewBitsAndEmptiesPending) {
  core::InformedSet informed(130);
  core::InformedSet pending(130);
  informed.set(5);
  informed.set(64);
  pending.set(5);    // overlap: must be skipped but still drained
  pending.set(63);
  pending.set(64);   // overlap
  pending.set(129);
  std::vector<graph::NodeId> fresh;
  const graph::NodeId added = informed.absorb_drain(pending, [&](graph::NodeId v) {
    fresh.push_back(v);
  });
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(fresh, (std::vector<graph::NodeId>{63, 129}));
  EXPECT_EQ(pending.count(), 0u);
  EXPECT_EQ(informed.count(), 4u);
  for (graph::NodeId v : {5u, 63u, 64u, 129u}) EXPECT_TRUE(informed.test(v)) << v;
}

TEST(InformedSet, SubsetCheckIsExact) {
  core::InformedSet a(100);
  core::InformedSet b(100);
  EXPECT_TRUE(a.is_subset_of(b));  // empty subset of empty
  a.set(10);
  a.set(99);
  EXPECT_FALSE(a.is_subset_of(b));
  b.set(10);
  b.set(99);
  b.set(50);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
}

// --- EventQueue --------------------------------------------------------------

TEST(EventQueue, DrainsInTimestampOrderAgainstAHeap) {
  // Random interleaved push/pop workload; the oracle is a binary heap over
  // (t, seq) — the documented total order.
  auto eng = rng::derive_stream(7, 1);
  core::EventQueue queue(64.0, 64);
  using Ref = std::pair<double, std::uint64_t>;  // (t, seq==payload)
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int round = 0; round < 5000; ++round) {
    if (ref.empty() || rng::bernoulli(eng, 0.55)) {
      const double t = now + rng::exponential(eng, 4.0);
      queue.push(t, seq);
      ref.emplace(t, seq);
      ++seq;
    } else {
      const auto ev = queue.pop_min();
      ASSERT_EQ(ev.t, ref.top().first);
      ASSERT_EQ(ev.payload, ref.top().second);
      now = ev.t;
      ref.pop();
    }
  }
  EXPECT_EQ(queue.size(), ref.size());
}

TEST(EventQueue, ExactTiesPopFifo) {
  core::EventQueue queue(8.0, 16);
  queue.push(2.0, 100);
  queue.push(1.0, 200);
  queue.push(1.0, 201);  // exact tie with the previous push
  queue.push(1.0, 202);
  EXPECT_EQ(queue.pop_min().payload, 200u);
  EXPECT_EQ(queue.pop_min().payload, 201u);
  queue.push(1.0, 203);  // tie pushed after the cursor entered the bucket
  EXPECT_EQ(queue.pop_min().payload, 202u);
  EXPECT_EQ(queue.pop_min().payload, 203u);
  EXPECT_EQ(queue.pop_min().payload, 100u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FarFutureEventsSurviveLazyRefinement) {
  // Events far past the window land in the overflow and must come back in
  // order once the cursor gets there (one window advance per cluster).
  core::EventQueue queue(4.0, 64);  // narrow window on purpose
  std::vector<double> times;
  auto eng = rng::derive_stream(8, 2);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const double t = rng::uniform01(eng) * 5000.0;  // huge horizon
    times.push_back(t);
    queue.push(t, i);
  }
  std::sort(times.begin(), times.end());
  for (double expected : times) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.pop_min().t, expected);
  }
  EXPECT_GT(queue.refinements(), 0u);
}

TEST(EventQueue, HoldPatternKeepsSizeConstant) {
  auto eng = rng::derive_stream(9, 3);
  core::EventQueue queue(256.0, 256);
  for (std::uint64_t c = 0; c < 256; ++c) queue.push(rng::exponential(eng, 1.0), c);
  double last = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const auto ev = queue.pop_min();
    ASSERT_GE(ev.t, last);
    last = ev.t;
    queue.push(ev.t + rng::exponential(eng, 1.0), ev.payload);
  }
  EXPECT_EQ(queue.size(), 256u);
}

// --- Sync fast path vs the retained reference --------------------------------

TEST(FastpathSync, BitIdenticalAcrossFamiliesSeedsAndModes) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        auto eng_fast = rng::derive_stream(515, seed);
        auto eng_ref = eng_fast;
        core::SyncOptions opts;
        opts.mode = mode;
        opts.record_history = true;
        const auto fast = core::run_sync(g, 0, eng_fast, opts);
        const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
        const std::string label =
            g.name() + "/" + core::mode_name(mode) + "/seed" + std::to_string(seed);
        expect_sync_equal(fast, ref, label);
        // Equal state after the run == both consumed the same draws.
        EXPECT_EQ(eng_fast.state(), eng_ref.state()) << label;
      }
    }
  }
}

TEST(FastpathSync, BitIdenticalWithLossMultiSourceAndCaps) {
  auto gen = rng::derive_stream(99, 7);
  const auto g = graph::erdos_renyi(150, 0.05, gen);
  for (double loss : {0.0, 0.3}) {
    for (std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{3}}) {
      auto eng_fast = rng::derive_stream(616, cap);
      auto eng_ref = eng_fast;
      core::SyncOptions opts;
      opts.mode = Mode::kPushPull;
      opts.message_loss = loss;
      opts.max_ticks = cap;
      opts.extra_sources = {5, 9, 5};  // duplicate on purpose
      opts.record_history = true;
      const auto fast = core::run_sync(g, 0, eng_fast, opts);
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
      expect_sync_equal(fast, ref, "loss=" + std::to_string(loss));
      EXPECT_EQ(eng_fast.state(), eng_ref.state());
    }
  }
}

TEST(FastpathSync, BitIdenticalOnChurnedAndWeightedOverlays) {
  const auto g = graph::hypercube(6);

  // Churn (Markov + rewire) with and without weights: each run gets its own
  // identically-seeded view, as campaign trials do.
  dynamics::DynamicsSpec markov;
  markov.churn = {dynamics::ChurnModel::kMarkov, 0.2, 0.2, 0.0, 2};
  markov.seed = 11;
  dynamics::DynamicsSpec rewire_weighted;
  rewire_weighted.churn.model = dynamics::ChurnModel::kRewire;
  rewire_weighted.churn.rewire = 0.3;
  rewire_weighted.weights.model = dynamics::WeightModel::kHeavyTailed;
  rewire_weighted.weights.alpha = 1.5;
  rewire_weighted.seed = 12;

  for (const dynamics::DynamicsSpec& spec : {markov, rewire_weighted}) {
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      auto eng_fast = rng::derive_stream(717, trial);
      auto eng_ref = eng_fast;
      dynamics::DynamicGraphView view_fast(g, spec, nullptr, 717, trial);
      dynamics::DynamicGraphView view_ref(g, spec, nullptr, 717, trial);
      core::SyncOptions opts;
      opts.mode = Mode::kPushPull;
      opts.record_history = true;
      opts.dynamics = &view_fast;
      const auto fast = core::run_sync(g, 0, eng_fast, opts);
      opts.dynamics = &view_ref;
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
      expect_sync_equal(fast, ref, churn_model_name(spec.churn.model));
      EXPECT_EQ(eng_fast.state(), eng_ref.state());
    }
  }

  // Static weighted contacts (the shared-alias-table fast path).
  dynamics::DynamicsSpec weighted;
  weighted.weights.model = dynamics::WeightModel::kDegree;
  weighted.seed = 13;
  dynamics::NeighborAliasTable sampler;
  sampler.build(dynamics::csr_offsets(g),
                dynamics::make_edge_weights(g, weighted.weights, weighted.seed));
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    auto eng_fast = rng::derive_stream(718, trial);
    auto eng_ref = eng_fast;
    dynamics::DynamicGraphView view_fast(g, weighted, &sampler, 718, trial);
    dynamics::DynamicGraphView view_ref(g, weighted, &sampler, 718, trial);
    core::SyncOptions opts;
    opts.dynamics = &view_fast;
    const auto fast = core::run_sync(g, 0, eng_fast, opts);
    opts.dynamics = &view_ref;
    const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
    expect_sync_equal(fast, ref, "static-weighted");
    EXPECT_EQ(eng_fast.state(), eng_ref.state());
  }
}

// --- Spread probes & the derived informed-count history ----------------------

namespace {

void expect_probe_equal(const core::SpreadProbe& a, const core::SpreadProbe& b,
                        const std::string& label) {
  EXPECT_EQ(a.contacts, b.contacts) << label;
  EXPECT_EQ(a.useful_push, b.useful_push) << label;
  EXPECT_EQ(a.useful_pull, b.useful_pull) << label;
  EXPECT_EQ(a.wasted_push, b.wasted_push) << label;
  EXPECT_EQ(a.wasted_pull, b.wasted_pull) << label;
  EXPECT_EQ(a.empty_contacts, b.empty_contacts) << label;
}

}  // namespace

TEST(FastpathSync, ProbeNeverPerturbsTheRunAndMatchesReferenceCounters) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      auto eng_plain = rng::derive_stream(818, 0);
      auto eng_probed = eng_plain;
      auto eng_ref = eng_plain;
      core::SyncOptions opts;
      opts.mode = mode;
      const auto plain = core::run_sync(g, 0, eng_plain, opts);

      core::SpreadProbe fast_probe;
      opts.probe = &fast_probe;
      const auto probed = core::run_sync(g, 0, eng_probed, opts);

      core::SpreadProbe ref_probe;
      opts.probe = &ref_probe;
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);

      const std::string label = g.name() + "/" + core::mode_name(mode);
      // Attaching a probe changes neither the result nor the RNG stream.
      expect_sync_equal(probed, plain, label);
      EXPECT_EQ(eng_probed.state(), eng_plain.state()) << label;
      // The fast path's windowed classification matches the reference's.
      expect_probe_equal(fast_probe, ref_probe, label);
      // Conservation: "useful" is first-to-reach, so useful transmissions
      // count informed non-sources exactly.
      EXPECT_EQ(fast_probe.useful(), static_cast<std::uint64_t>(g.num_nodes()) - 1) << label;
      // One-directional modes carry at most one transmission per contact;
      // push-pull contacts can carry one in each direction.
      const std::uint64_t classified =
          fast_probe.useful() + fast_probe.wasted() + fast_probe.empty_contacts;
      if (mode == Mode::kPushPull) {
        EXPECT_GE(classified, fast_probe.contacts) << label;
      } else {
        EXPECT_EQ(classified, fast_probe.contacts) << label;
      }
    }
  }
}

TEST(FastpathAsync, ProbeNeverPerturbsTheRunAndConservationHoldsPerView) {
  // Irregular (CSR rows) and regular (flat stride) graphs on every view,
  // plus a Markov-churned global clock (the view scan): attaching the probe
  // must not move a draw in any specialization of the tick loop.
  auto graph_gen = rng::derive_stream(77, 1);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::erdos_renyi(96, 0.07, graph_gen));
  graphs.push_back(graph::hypercube(6));
  dynamics::DynamicsSpec markov;
  markov.churn = {dynamics::ChurnModel::kMarkov, 0.2, 0.2, 0.0, 2};
  markov.seed = 41;
  for (const auto& g : graphs) {
    for (const core::AsyncView view : {core::AsyncView::kGlobalClock,
                                       core::AsyncView::kPerNodeClocks,
                                       core::AsyncView::kPerEdgeClocks}) {
      for (bool churned : {false, true}) {
        if (churned && view != core::AsyncView::kGlobalClock) continue;  // global clock only
        for (double loss : {0.0, 0.25}) {
          auto eng_plain = rng::derive_stream(819, static_cast<std::uint64_t>(view));
          auto eng_probed = eng_plain;
          dynamics::DynamicGraphView churn_plain(g, markov, nullptr, 819, 0);
          dynamics::DynamicGraphView churn_probed(g, markov, nullptr, 819, 0);
          core::AsyncOptions opts;
          opts.view = view;
          opts.message_loss = loss;
          opts.dynamics = churned ? &churn_plain : nullptr;
          const auto plain = core::run_async(g, 0, eng_plain, opts);

          core::SpreadProbe probe;
          opts.probe = &probe;
          opts.dynamics = churned ? &churn_probed : nullptr;
          const auto probed = core::run_async(g, 0, eng_probed, opts);

          const std::string label = g.name() + "/view" + std::to_string(static_cast<int>(view)) +
                                    (churned ? "/markov" : "") + "/loss" + std::to_string(loss);
          expect_async_equal(probed, plain, label);
          EXPECT_EQ(eng_probed.state(), eng_plain.state()) << label;
          EXPECT_EQ(probe.contacts, probed.steps) << label;
          ASSERT_TRUE(probed.completed) << label;
          EXPECT_EQ(probe.useful(), static_cast<std::uint64_t>(g.num_nodes()) - 1) << label;
        }
      }
    }
  }
}

TEST(FastpathSync, RecordHistoryIsTheDerivedCurveBitExactly) {
  // Hand-pinned case: on K2 the source informs the other node in round 1
  // regardless of mode or randomness — the history is exactly {1, 2}.
  {
    const auto g = graph::complete(2);
    auto eng = rng::derive_stream(5, 5);
    core::SyncOptions opts;
    opts.record_history = true;
    const auto r = core::run_sync(g, 0, eng, opts);
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_EQ(r.informed_count_history, (std::vector<graph::NodeId>{1, 2}));
  }
  // General pinning, including loss, duplicate multi-source, and a round
  // cap that stops mid-spread: the recorded history must equal the curve
  // derived from first-informed rounds (integer-exact), start at the
  // distinct source count, be monotone, and end at the informed count.
  auto gen = rng::derive_stream(42, 3);
  const auto g = graph::erdos_renyi(120, 0.05, gen);
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{4}}) {
    auto eng = rng::derive_stream(820, cap);
    core::SyncOptions opts;
    opts.record_history = true;
    opts.message_loss = 0.2;
    opts.extra_sources = {5, 9, 5};  // duplicate on purpose: 3 distinct sources
    opts.max_ticks = cap;
    const auto r = core::run_sync(g, 0, eng, opts);
    const std::string label = "cap" + std::to_string(cap);
    EXPECT_EQ(r.informed_count_history, core::informed_round_curve(r.informed_round, r.rounds))
        << label;
    ASSERT_EQ(r.informed_count_history.size(), static_cast<std::size_t>(r.rounds) + 1) << label;
    EXPECT_EQ(r.informed_count_history.front(), 3u) << label;
    EXPECT_TRUE(std::is_sorted(r.informed_count_history.begin(),
                               r.informed_count_history.end())) << label;
    const auto informed = static_cast<graph::NodeId>(
        std::count_if(r.informed_round.begin(), r.informed_round.end(),
                      [](std::uint64_t round) { return round != core::kNeverRound; }));
    EXPECT_EQ(r.informed_count_history.back(), informed) << label;
    if (cap != 0) {
      EXPECT_FALSE(r.completed) << label;
    }
  }
}

// --- Per-edge async: bucket queue vs the retained heap -----------------------

TEST(FastpathAsync, PerEdgeBucketQueueMatchesHeapBitForBit) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPushPull}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        auto eng_fast = rng::derive_stream(818, seed);
        auto eng_ref = eng_fast;
        core::AsyncOptions opts;
        opts.mode = mode;
        opts.view = core::AsyncView::kPerEdgeClocks;
        const auto fast = core::run_async(g, 0, eng_fast, opts);
        const auto ref = core::run_async_reference(g, 0, eng_ref, opts);
        const std::string label =
            g.name() + "/" + core::mode_name(mode) + "/seed" + std::to_string(seed);
        expect_async_equal(fast, ref, label);
        EXPECT_EQ(eng_fast.state(), eng_ref.state()) << label;
      }
    }
  }
}

TEST(FastpathAsync, PerEdgeMatchesHeapUnderLossAndStepCap) {
  const auto g = graph::torus(8);
  core::AsyncOptions opts;
  opts.view = core::AsyncView::kPerEdgeClocks;
  opts.message_loss = 0.25;
  opts.max_ticks = 500;  // far too few: the capped prefix must match too
  auto eng_fast = rng::derive_stream(819, 0);
  auto eng_ref = eng_fast;
  const auto fast = core::run_async(g, 0, eng_fast, opts);
  const auto ref = core::run_async_reference(g, 0, eng_ref, opts);
  expect_async_equal(fast, ref, "loss+cap");
  EXPECT_FALSE(fast.completed);
  EXPECT_EQ(eng_fast.state(), eng_ref.state());
}

// --- Pinned digests: every specialization of the two hot loops ---------------
//
// One FNV-1a digest per run over the result bits (inform times or rounds,
// steps or rounds, completed), the caller's engine state after the call and
// the probe counters. The tables were recorded from the runtime-branch
// global-clock loop and the reference-held engines, before the loops were
// specialized and the engine state moved into a local: any change to a
// draw, its order, the fold arithmetic or the engine write-back shows here.

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

void add_engine_and_probe(Fnv1a& f, const rng::Engine& eng, const core::SpreadProbe& probe) {
  for (std::uint64_t word : eng.state()) f.add(word);
  for (std::uint64_t count : {probe.contacts, probe.useful_push, probe.useful_pull,
                              probe.wasted_push, probe.wasted_pull, probe.empty_contacts}) {
    f.add(count);
  }
}

void add_result(Fnv1a& f, const core::AsyncResult& r) {
  for (double t : r.informed_time) f.add(std::bit_cast<std::uint64_t>(t));
  f.add(std::bit_cast<std::uint64_t>(r.time));
  f.add(r.steps);
  f.add(r.completed ? 1u : 0u);
}

void add_result(Fnv1a& f, const core::SyncResult& r) {
  for (std::uint64_t round : r.informed_round) f.add(round);
  f.add(r.rounds);
  f.add(r.completed ? 1u : 0u);
}

/// A graph of the digest matrix with the step / round caps its runs use.
struct DigestGraph {
  graph::Graph g;
  std::uint64_t async_cap;
  std::uint64_t sync_cap;
};

/// Regular (stride scan), irregular (CSR scan), and a star plus one isolated
/// node (empty contacts) that never completes, so its caps are hit.
std::vector<DigestGraph> digest_graphs() {
  auto gen = rng::derive_stream(77, 1);
  std::vector<DigestGraph> graphs;
  graphs.push_back({graph::hypercube(6), 0, 0});
  graphs.push_back({graph::torus(6), 0, 0});
  graphs.push_back({graph::erdos_renyi(96, 0.07, gen), 0, 0});
  graph::GraphBuilder builder(65);
  for (graph::NodeId leaf = 1; leaf < 64; ++leaf) builder.add_edge(0, leaf);
  graphs.push_back({std::move(builder).build("star(64)+isolated"), 4000, 40});
  return graphs;
}

/// Runs `run(g, eng, options)` over graph x mode x loss x probe x churn and
/// returns (label, digest) per run, each run on its own stream and view.
template <class Options, class Run>
std::vector<std::pair<std::string, std::uint64_t>> digest_matrix(bool async, Run run) {
  dynamics::DynamicsSpec markov;
  markov.churn = {dynamics::ChurnModel::kMarkov, 0.2, 0.2, 0.0, 2};
  markov.seed = 31;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::uint64_t index = 0;
  for (const DigestGraph& dg : digest_graphs()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      for (double loss : {0.0, 0.2}) {
        for (bool probed : {false, true}) {
          for (bool churned : {false, true}) {
            auto eng = rng::derive_stream(9001, index);
            std::optional<dynamics::DynamicGraphView> view;
            if (churned) view.emplace(dg.g, markov, nullptr, 9001, index);
            core::SpreadProbe probe;
            Options opts;
            opts.mode = mode;
            opts.message_loss = loss;
            opts.max_ticks = async ? dg.async_cap : dg.sync_cap;
            opts.probe = probed ? &probe : nullptr;
            opts.dynamics = churned ? &*view : nullptr;
            Fnv1a f;
            add_result(f, run(dg.g, eng, opts));
            add_engine_and_probe(f, eng, probe);
            digests.emplace_back(dg.g.name() + "/" + core::mode_name(mode) + "/loss" +
                                     std::to_string(loss) + (probed ? "/probe" : "") +
                                     (churned ? "/markov" : ""),
                                 f.h);
            ++index;
          }
        }
      }
    }
  }
  return digests;
}

/// Hooked global-clock runs and multi-source runs: graph x mode x loss,
/// sources {0, 5, 9} (5 listed twice), probe attached.
template <class Options, class Run>
std::vector<std::pair<std::string, std::uint64_t>> digest_sources(bool async, Run run) {
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::uint64_t index = 0;
  for (const DigestGraph& dg : digest_graphs()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      for (double loss : {0.0, 0.2}) {
        auto eng = rng::derive_stream(9002, index++);
        core::SpreadProbe probe;
        Options opts;
        opts.mode = mode;
        opts.message_loss = loss;
        opts.max_ticks = async ? dg.async_cap : dg.sync_cap;
        opts.probe = &probe;
        opts.extra_sources = {5, 9, 5};
        Fnv1a f;
        run(f, dg.g, eng, opts);
        add_engine_and_probe(f, eng, probe);
        digests.emplace_back(
            dg.g.name() + "/" + core::mode_name(mode) + "/loss" + std::to_string(loss), f.h);
      }
    }
  }
  return digests;
}

template <std::size_t N>
void expect_digests(const std::vector<std::pair<std::string, std::uint64_t>>& actual,
                    const std::uint64_t (&expected)[N]) {
  ASSERT_EQ(actual.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(actual[i].second, expected[i])
        << "run " << i << " " << actual[i].first << ": 0x" << std::hex << actual[i].second;
  }
}

constexpr std::uint64_t kAsyncDigests[] = {
    0x88e2a05c9fec951eULL, 0x8588adf4d19ab702ULL, 0xcf500263d6a5b9e8ULL, 0xb100401d56661aa9ULL,
    0x0d74349e059f0932ULL, 0xe729edf0f2e909aeULL, 0x44dda0a5278ec08aULL, 0x15f6658839a74f01ULL,
    0x51af93ab94824f6cULL, 0x9658503c1f4d4de5ULL, 0x09a2cb940b05d552ULL, 0x2a03661763f7f5a5ULL,
    0xc2f17cca8e3881b4ULL, 0x30c8d2ffd79c39dfULL, 0x6a7fa97ee5a5a0d6ULL, 0xa071ea65c5b33dfdULL,
    0x6d73a5ed09a3f72dULL, 0xad6c03f324000a7cULL, 0xe633966a28290e48ULL, 0x8c541d8d4c265360ULL,
    0xee76197cc6be31faULL, 0x3fa754bf22ad41eaULL, 0x1a8bbdd0a6c05d7dULL, 0x2212db4580d8b0b7ULL,
    0xa766d68757228b12ULL, 0x1c6e14bf84387be2ULL, 0x488d67dea11a69adULL, 0xd1be2af1cc7280a1ULL,
    0xd992fadc179bca0cULL, 0x037881a78759b8eaULL, 0xf090bfc7ddfe1494ULL, 0x7801af117cb91474ULL,
    0x18024b8398c003ecULL, 0xdb6e37f1090549ecULL, 0xa99aa3d90d97b9e3ULL, 0xaf9274f0b705cdbeULL,
    0x847fbdc6e00159bcULL, 0x21cc43444c8dbcfbULL, 0x1f926d9d1c35b4d1ULL, 0x78fe3da8bf8942fdULL,
    0xf7747d15194ccdaeULL, 0xb5461645a88fbc96ULL, 0xc6bc94e7fc109f43ULL, 0x014c4c593fb3f496ULL,
    0x616e8eea6a437afeULL, 0xea56b5608109a6c1ULL, 0xb744aff68fcb1a84ULL, 0x0b32c50d168c2d86ULL,
    0x60aa409791a60146ULL, 0xc1a814aa0694288cULL, 0xdac8143a364ffd7eULL, 0xe455fbd964227d50ULL,
    0x8082f86bc946a684ULL, 0xffb24e910daad151ULL, 0x66a86c0365c50c52ULL, 0xe92d80d6e05ba16cULL,
    0x9599a6aaac67c1b8ULL, 0xfdcbe22150f5e8ecULL, 0x0f1f8cf1cab66561ULL, 0x17b18725293facceULL,
    0xaf1a10b03d2db88eULL, 0x1ca993b8c9047b3bULL, 0xa2343056e716be0bULL, 0xc38ef2de23ed8679ULL,
    0x5826fcf58c02e60bULL, 0x92e6375dfe4f8fdcULL, 0x517e23a1d1d6ac1cULL, 0x5a83f9d0c05f84e3ULL,
    0xfd5de959b4b9a4f6ULL, 0xc0a0d1dfb4b4ca9bULL, 0xb7a099cf829b5f77ULL, 0xc78ce762cc7fd6f2ULL,
    0x305817bf00140334ULL, 0xe8414512594e0f8cULL, 0x19a5fac74c3c1e02ULL, 0xd7c50d1597ba8c30ULL,
    0x8eec8674c645ca8aULL, 0xe6a44c340f5ae507ULL, 0x069190a5cc5074c7ULL, 0xc0f814716d6e102dULL,
    0x275c630e5f223d20ULL, 0xdaf423972bdad595ULL, 0x202818eccd075939ULL, 0x500ad347b2c165e7ULL,
    0x142adb6009faca4cULL, 0xe41437dfe690f9caULL, 0x87fd0ff3f97e1ef1ULL, 0xdd556417c3902a78ULL,
    0x5d6a275326419589ULL, 0x87552e507a30b2e9ULL, 0x10d00b385468f85fULL, 0x3d8ca5739edd9203ULL,
    0x036a04f5b110dc32ULL, 0xbf48232b99c0a595ULL, 0x2e7df7c56c79720bULL, 0xd437b977f373daaeULL,
};
constexpr std::uint64_t kSyncDigests[] = {
    0xc0bc44410bd812b9ULL, 0x06c082501e7de017ULL, 0x92c12cb12c7d4023ULL, 0x5faa760ef337965fULL,
    0x8370f2e00bacc968ULL, 0x9685ddbaca53647fULL, 0xa0769a47773fc96dULL, 0xae9ef466958253adULL,
    0xc60904482002a479ULL, 0xd9a1ae412c75184fULL, 0x47e4c7eb4a3efae4ULL, 0x1dfc54ae46af4212ULL,
    0xce90a31f4cb817e6ULL, 0xeab2d7730aec2e89ULL, 0xcebdc4a699b6b977ULL, 0xc13e654c5136154cULL,
    0x6b755dab9da8e875ULL, 0xe8ea840a07fb50fbULL, 0x78d6b73bdc30a24bULL, 0x78389e61bcab7e5eULL,
    0xb3f398d940924ab0ULL, 0x3fff5727306e5dceULL, 0x23a41143fc2cee76ULL, 0x0f5b1e527af6b044ULL,
    0xa2456e4ec74aa8e2ULL, 0x0d5b5f74d59060b2ULL, 0xb43fb198a1f07fd7ULL, 0x4a893edf5a34bd87ULL,
    0xc18ed5149d37e224ULL, 0x6b9a0a9c4b91be88ULL, 0x8052b83948e9872aULL, 0x4dce3e185ec94ce4ULL,
    0xf6cdf03d19b23f9fULL, 0xe3ab96a43a2d9d55ULL, 0x169bf46819bfaa0aULL, 0x02158aa40b262574ULL,
    0x262af39596cffb14ULL, 0x5b58496717824857ULL, 0x9c61f8f9a4a35cb0ULL, 0x719570ede466a801ULL,
    0x93a00fc8b6c9ece5ULL, 0x0dc282f0d5751895ULL, 0x9ea6928d80932adcULL, 0x8737dd6a9222f23fULL,
    0xb8860cb135fcc557ULL, 0xd0a72dc1a0941ad5ULL, 0x78c22912df0cb597ULL, 0x44ec4da9eac83972ULL,
    0xb020eeafcf39ed4eULL, 0x5514145388e6cb97ULL, 0xa788b5b5bad35a01ULL, 0xc4bbf2ab4bb86e19ULL,
    0xcdc0daec689a3461ULL, 0xd5622a69f3226713ULL, 0xa85ba1e8db0d342dULL, 0xd99fdef4dbbc8617ULL,
    0x155828f66a592269ULL, 0x8e226a76146de874ULL, 0xe513f57d49356e1cULL, 0x1635e203ff19cd85ULL,
    0xe7195beb511eb14bULL, 0xead21f6b5efaef47ULL, 0x6cda28e900084e5eULL, 0x4cf0a18b7e44ba9dULL,
    0x30a04992b1b19586ULL, 0x7ef26a2750d6d150ULL, 0xdeac41a166aad33eULL, 0x653a850f9a9399a2ULL,
    0xead61765f851311fULL, 0xd73dd9c433a29c1aULL, 0x624a212cdb075f9aULL, 0x7aad3b00d2f2ea77ULL,
    0x5d965cb16a4b9e66ULL, 0xfe38389729ed8e8aULL, 0x0be76847e29027afULL, 0xd3ca7f11d5c627f4ULL,
    0x3aef7f564c2f4baeULL, 0xa4fedefee422656dULL, 0x482edcd8f4899b56ULL, 0x5a2133b4e3b020aeULL,
    0x02c8ba2257c6a792ULL, 0x54de318370d5bde4ULL, 0xa72f858fa91eb654ULL, 0xee98a4f985c38de2ULL,
    0x716c0c68c2db6428ULL, 0x883334ee3fc63c45ULL, 0xfee520b28607c678ULL, 0xf74d8f074a116a9cULL,
    0x5792e41402681697ULL, 0xc9708990dc186d95ULL, 0x7b12b0c751e4d6ddULL, 0x25087ce746254e03ULL,
    0x4acd67bc5974579eULL, 0x0c5ab24d439054b5ULL, 0x746028bb76600ce6ULL, 0x2495e1195fcb086aULL,
};
constexpr std::uint64_t kAsyncHookDigests[] = {
    0xe47fdc4376d3b128ULL, 0x6164cc472359367aULL, 0xda5e94c1034aa5a1ULL, 0x13cb87f89eb148d9ULL,
    0x2f366963abea1296ULL, 0xe48e6962a61d9227ULL, 0x5b6a937722fa118cULL, 0x2c54bf145345dc37ULL,
    0x11933b183f5e697aULL, 0xd9bc456ee12c9f50ULL, 0xf8360bbab2262a94ULL, 0x33a135e2db4af925ULL,
    0xd3388333591699cfULL, 0xfc734080b5537c4dULL, 0xc8ccf346fc1a1d05ULL, 0x716923f0808b8338ULL,
    0x4160e422ae43006eULL, 0x2d068b9d0adae7d1ULL, 0xd9f7103e2bfd24b8ULL, 0x3cf64f5366f09571ULL,
    0x37ee7531ace77abeULL, 0xca6c3b2b1aa2e9c0ULL, 0xbe532e9a39da50faULL, 0x340c79f767a3f223ULL,
};
constexpr std::uint64_t kSyncSourceDigests[] = {
    0x34c91382c890da5fULL, 0xc498dbce858deb5fULL, 0x651413930ad13d64ULL, 0x02e34c25ea5b9e25ULL,
    0xebb5a57dd2e1a77fULL, 0xf85ae51ecf77bb86ULL, 0x2d2ada2a44c2cd1fULL, 0xc52daf9db50a970dULL,
    0x767428ed08bec3b4ULL, 0x8cc0a5645fb5d953ULL, 0x2952dc6b340020f0ULL, 0xdbecf22daac83466ULL,
    0xcfa3b22722ab96c3ULL, 0x7204521d9fa1e76bULL, 0xc5f7ece0474099e6ULL, 0x4abe2886079ac631ULL,
    0xf1172b4240e55a66ULL, 0xa3d717bc5708dcc3ULL, 0xb9a161e396e3295aULL, 0xbfff028cba52496dULL,
    0x50d243fa1b9e1591ULL, 0x1d821a576c33dfa5ULL, 0x5a2bc948432a59caULL, 0x4487dab5a1cee603ULL,
};

}  // namespace

TEST(FastpathDigest, AsyncGlobalClockMatchesPinnedDigests) {
  expect_digests(digest_matrix<core::AsyncOptions>(true,
                                                   [](const graph::Graph& g, rng::Engine& eng,
                                                      const core::AsyncOptions& opts) {
                                                     return core::run_async(g, 0, eng, opts);
                                                   }),
                 kAsyncDigests);
}

TEST(FastpathDigest, SyncMatchesPinnedDigests) {
  expect_digests(digest_matrix<core::SyncOptions>(false,
                                                  [](const graph::Graph& g, rng::Engine& eng,
                                                     const core::SyncOptions& opts) {
                                                    return core::run_sync(g, 0, eng, opts);
                                                  }),
                 kSyncDigests);
}

TEST(FastpathDigest, HookedGlobalClockWithExtraSourcesMatchesPinnedDigests) {
  expect_digests(
      digest_sources<core::AsyncOptions>(
          true, [](Fnv1a& f, const graph::Graph& g, rng::Engine& eng,
                   const core::AsyncOptions& opts) {
            Fnv1a informs;
            const auto r = core::run_async_global_clock(
                g, 0, eng, opts, [&](graph::NodeId informer, graph::NodeId target) {
                  informs.add((static_cast<std::uint64_t>(informer) << 32) | target);
                });
            add_result(f, r);
            f.add(informs.h);
          }),
      kAsyncHookDigests);
}

TEST(FastpathDigest, SyncWithExtraSourcesMatchesPinnedDigests) {
  expect_digests(digest_sources<core::SyncOptions>(
                     false, [](Fnv1a& f, const graph::Graph& g, rng::Engine& eng,
                               const core::SyncOptions& opts) {
                       add_result(f, core::run_sync(g, 0, eng, opts));
                     }),
                 kSyncSourceDigests);
}

// --- Campaign contract on the new cores --------------------------------------

TEST(FastpathCampaign, SummariesBitIdenticalAtThreads128) {
  // Sync, per-edge async, churned sync, and weighted sync cells — the four
  // engine paths this PR touched — must keep the campaign determinism
  // contract: identical summaries at threads 1, 2, and 8.
  auto shared = [](graph::Graph g) {
    return std::make_shared<const graph::Graph>(std::move(g));
  };
  const auto hyper = shared(graph::hypercube(5));

  std::vector<sim::CampaignConfig> cells(4);
  cells[0].id = "sync";
  cells[0].prebuilt = hyper;
  cells[1].id = "per_edge";
  cells[1].prebuilt = hyper;
  cells[1].engine = sim::EngineKind::kAsync;
  cells[1].view = core::AsyncView::kPerEdgeClocks;
  cells[2].id = "churned";
  cells[2].prebuilt = hyper;
  cells[2].dynamics.churn = {dynamics::ChurnModel::kMarkov, 0.1, 0.1, 0.0, 1};
  cells[3].id = "weighted";
  cells[3].prebuilt = hyper;
  cells[3].dynamics.weights.model = dynamics::WeightModel::kHeavyTailed;
  for (auto& cell : cells) {
    cell.trials = 48;
    cell.seed = 21;
  }

  sim::CampaignOptions options;
  options.block_size = 8;
  options.threads = 1;
  const auto t1 = sim::run_campaign(cells, options);
  options.threads = 2;
  const auto t2 = sim::run_campaign(cells, options);
  options.threads = 8;
  const auto t8 = sim::run_campaign(cells, options);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const auto* other : {&t2, &t8}) {
      const auto& a = t1[c].summary;
      const auto& b = (*other)[c].summary;
      EXPECT_EQ(a.mean(), b.mean()) << cells[c].id;
      EXPECT_EQ(a.min(), b.min()) << cells[c].id;
      EXPECT_EQ(a.max(), b.max()) << cells[c].id;
      EXPECT_EQ(a.quantile(0.5), b.quantile(0.5)) << cells[c].id;
      EXPECT_EQ(a.values(), b.values()) << cells[c].id;
      EXPECT_EQ(a.reservoir().entries(), b.reservoir().entries()) << cells[c].id;
    }
  }
}
