#include "support/reference_engines.hpp"

#include <cassert>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/informed_set.hpp"
#include "core/spread_probe.hpp"
#include "dynamics/churn.hpp"

namespace rumor::core {

namespace {

/// Seeds source + extra_sources at round 0; returns the informed count.
NodeId seed_sources(NodeId source, const SyncOptions& options, SyncResult& result) {
  result.informed_round[source] = 0;
  NodeId count = 1;
  for (NodeId extra : options.extra_sources) {
    assert(extra < result.informed_round.size());
    if (result.informed_round[extra] == kNeverRound) {
      result.informed_round[extra] = 0;
      ++count;
    }
  }
  return count;
}

/// Seeds the source set at time 0; returns the informed count.
NodeId seed_sources(NodeId source, const AsyncOptions& options,
                    std::vector<double>& informed_time) {
  informed_time[source] = 0.0;
  NodeId count = 1;
  for (NodeId extra : options.extra_sources) {
    assert(extra < informed_time.size());
    if (informed_time[extra] == kNeverTime) {
      informed_time[extra] = 0.0;
      ++count;
    }
  }
  return count;
}

bool informed(const std::vector<double>& informed_time, NodeId x) noexcept {
  return informed_time[x] != kNeverTime;
}

/// Node v contacts node w at time `now`; the uninformed endpoint learns the
/// rumor if the mode carries it that way.
void exchange(Mode mode, NodeId v, NodeId w, double now, std::vector<double>& informed_time,
              NodeId& informed_count) {
  const bool v_in = informed(informed_time, v);
  const bool w_in = informed(informed_time, w);
  if (v_in == w_in) return;
  if (mode == Mode::kPush && !v_in) return;
  if (mode == Mode::kPull && !w_in) return;
  informed_time[v_in ? w : v] = now;
  ++informed_count;
}

}  // namespace

SyncResult run_sync_reference(const Graph& g, NodeId source, rng::Engine& eng,
                              const SyncOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);

  SyncResult result;
  result.informed_round.assign(n, kNeverRound);
  NodeId informed_count = seed_sources(source, options, result);

  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  // Nodes informed strictly before the current round: informed_round < r.
  // Newly informed nodes are stamped with the current round number, so the
  // same array doubles as the pre-round snapshot.
  dynamics::DynamicGraphView* const view = options.dynamics;
  std::vector<NodeId> newly_informed;
  // Probe-only freshness marks for the current round; the commit loop
  // clears them. The scan itself keeps stamping through newly_informed, so
  // attaching a probe cannot change the reference's behavior.
  InformedSet probe_pending(options.probe != nullptr ? n : 0);
  for (std::uint64_t r = 1; informed_count < n && r <= cap; ++r) {
    if (view != nullptr) view->begin_round(r);  // churn applies between rounds
    newly_informed.clear();
    auto informed_before = [&](NodeId v) { return result.informed_round[v] < r; };

    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t deg = view != nullptr ? view->degree(v) : g.degree(v);
      if (deg == 0) continue;  // isolated node (possibly churned-out): nothing to contact
      const NodeId w = view != nullptr ? view->sample(v, eng) : g.random_neighbor(v, eng);
      const bool v_in = informed_before(v);
      const bool w_in = informed_before(w);
      // Same draw condition as below, hoisted so the probe can see the lost
      // flag: randomness consumption is unchanged.
      const bool lost = v_in != w_in && options.message_loss > 0.0 &&
                        rng::bernoulli(eng, options.message_loss);
      if (options.probe != nullptr) {
        probe_windowed(*options.probe, options.mode, v_in, w_in, lost, v, w, probe_pending);
      }
      if (v_in == w_in) continue;  // both or neither informed: no exchange
      if (lost) continue;
      switch (options.mode) {
        case Mode::kPush:
          if (v_in && result.informed_round[w] == kNeverRound) newly_informed.push_back(w);
          break;
        case Mode::kPull:
          if (w_in && result.informed_round[v] == kNeverRound) newly_informed.push_back(v);
          break;
        case Mode::kPushPull:
          if (v_in) {
            if (result.informed_round[w] == kNeverRound) newly_informed.push_back(w);
          } else {
            if (result.informed_round[v] == kNeverRound) newly_informed.push_back(v);
          }
          break;
      }
    }
    // Commit after the scan so every exchange saw the pre-round snapshot; a
    // node informed via several contacts in the same round is stamped once.
    for (NodeId v : newly_informed) {
      if (result.informed_round[v] == kNeverRound) {
        result.informed_round[v] = r;
        ++informed_count;
      }
      if (options.probe != nullptr) probe_pending.reset(v);
    }
    result.rounds = r;
  }

  result.completed = (informed_count == n);
  if (!result.completed) result.rounds = cap;
  if (options.record_history) {
    result.informed_count_history = informed_round_curve(result.informed_round, result.rounds);
  }
  return result;
}

AsyncResult run_async_reference(const Graph& g, NodeId source, rng::Engine& eng,
                                const AsyncOptions& options) {
  if (options.view != AsyncView::kPerEdgeClocks) return run_async(g, source, eng, options);
  assert(source < g.num_nodes());
  if (options.dynamics != nullptr) {
    throw std::runtime_error("run_async: dynamics overlays need the global-clock view");
  }
  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_step_cap(g.num_nodes());

  // The original binary-heap event loop of the per-edge view.
  const NodeId n = g.num_nodes();
  AsyncResult result;
  result.informed_time.assign(n, kNeverTime);
  NodeId informed_count = seed_sources(source, options, result.informed_time);

  struct EdgeTick {
    double t;
    NodeId v;
    NodeId w;
    std::uint64_t seq;
    bool operator>(const EdgeTick& o) const noexcept {
      return t != o.t ? t > o.t : seq > o.seq;  // FIFO among exact ties
    }
  };
  std::priority_queue<EdgeTick, std::vector<EdgeTick>, std::greater<>> clock;
  std::uint64_t seq = 0;
  for (NodeId v = 0; v < n; ++v) {
    const double rate = 1.0 / static_cast<double>(g.degree(v));
    for (NodeId w : g.neighbors(v)) {
      clock.push(EdgeTick{rng::exponential(eng, rate), v, w, seq++});
    }
  }

  double now = 0.0;
  std::uint64_t steps = 0;
  while (informed_count < n && steps < cap && !clock.empty()) {
    const EdgeTick tick = clock.top();
    clock.pop();
    now = tick.t;
    ++steps;
    const double rate = 1.0 / static_cast<double>(g.degree(tick.v));
    clock.push(EdgeTick{now + rng::exponential(eng, rate), tick.v, tick.w, seq++});
    const bool lost = options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss);
    if (options.probe != nullptr) {
      probe_instant(*options.probe, options.mode, informed(result.informed_time, tick.v),
                    informed(result.informed_time, tick.w), lost);
    }
    if (!lost) exchange(options.mode, tick.v, tick.w, now, result.informed_time, informed_count);
  }
  result.time = now;
  result.steps = steps;
  result.completed = (informed_count == n);
  return result;
}

}  // namespace rumor::core
