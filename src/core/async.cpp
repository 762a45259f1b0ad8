#include "core/async.hpp"

#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "dynamics/churn.hpp"

namespace rumor::core {

namespace {

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

/// Membership test shared by exchange and the probes. Not a comparison
/// with `now`: after a zero-length gap (the draw u == 1, or now + gap ==
/// now) a node informed at the current instant, or the source at time 0,
/// would look uninformed.
bool informed(const std::vector<double>& informed_time, NodeId x) noexcept {
  return informed_time[x] != kNeverTime;
}

constexpr NodeId kNobody = static_cast<NodeId>(-1);

/// The global clock folds its running product of uniforms below this
/// (see run_global_clock).
constexpr double kFoldBelow = 0x1p-960;

/// Shared exchange rule: node v contacts node w. Returns the node the
/// contact informs, or kNobody if it changes nothing.
NodeId exchange_target(Mode mode, NodeId v, NodeId w,
                       const std::vector<double>& informed_time) noexcept {
  const bool v_in = informed(informed_time, v);
  const bool w_in = informed(informed_time, w);
  if (v_in == w_in) return kNobody;
  if (mode == Mode::kPush && !v_in) return kNobody;
  if (mode == Mode::kPull && !w_in) return kNobody;
  return v_in ? w : v;
}

/// Applies the exchange rule at time `now`, stamping the node it informs.
void exchange(Mode mode, NodeId v, NodeId w, double now, std::vector<double>& informed_time,
              NodeId& informed_count) {
  const NodeId target = exchange_target(mode, v, w, informed_time);
  if (target == kNobody) return;
  informed_time[target] = now;
  ++informed_count;
}

AsyncResult run_global_clock(const Graph& g, NodeId source, rng::Engine& eng,
                             const AsyncOptions& options, std::uint64_t cap,
                             const InformHook& on_inform) {
  const NodeId n = g.num_nodes();
  AsyncResult result;
  result.informed_time.assign(n, kNeverTime);
  NodeId informed_count = seed_sources(source, options, result.informed_time);

  // Tick k comes -log(u_k)/n after tick k-1. Only informs, the dynamics
  // view and the final time read the clock, and -sum log u_k equals
  // -log prod u_k, so each tick multiplies its uniform into `prod` and
  // `fold` pays one log for the whole run of ticks since the last fold.
  // Folding once prod < 2^-960 keeps it normal: every u is >= 2^-53.
  double now = 0.0;
  double prod = 1.0;
  std::uint64_t steps = 0;
  const double rate = static_cast<double>(n);
  auto fold = [&] {
    now -= std::log(prod) / rate;
    prod = 1.0;
  };
  dynamics::DynamicGraphView* const view = options.dynamics;
  while (informed_count < n && steps < cap) {
    prod *= rng::uniform01_open_low(eng);
    ++steps;
    if (prod < kFoldBelow) fold();
    if (view != nullptr) {
      fold();
      view->advance_time(now);  // churn epochs track the clock
    }
    const NodeId v = static_cast<NodeId>(rng::uniform_below(eng, n));
    const std::uint32_t deg = view != nullptr ? view->degree(v) : g.degree(v);
    if (deg == 0) {
      if (options.probe != nullptr) probe_empty_contact(*options.probe);
      continue;
    }
    const NodeId w = view != nullptr ? view->sample(v, eng) : g.random_neighbor(v, eng);
    const bool lost = options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss);
    if (options.probe != nullptr) {
      probe_instant(*options.probe, options.mode, informed(result.informed_time, v),
                    informed(result.informed_time, w), lost);
    }
    if (lost) continue;
    const NodeId target = exchange_target(options.mode, v, w, result.informed_time);
    if (target == kNobody) continue;
    fold();
    result.informed_time[target] = now;
    ++informed_count;
    if (on_inform) on_inform(target == w ? v : w, target);
  }
  fold();
  result.time = now;
  result.steps = steps;
  result.completed = (informed_count == n);
  return result;
}

AsyncResult run_per_node_clocks(const Graph& g, NodeId source, rng::Engine& eng,
                                const AsyncOptions& options, std::uint64_t cap) {
  const NodeId n = g.num_nodes();
  AsyncResult result;
  result.informed_time.assign(n, kNeverTime);
  NodeId informed_count = seed_sources(source, options, result.informed_time);

  // Min-heap of (next tick time, node). Each node re-arms itself after
  // firing with a fresh Exp(1) gap — memorylessness makes this exact.
  using Tick = std::pair<double, NodeId>;
  std::priority_queue<Tick, std::vector<Tick>, std::greater<>> clock;
  for (NodeId v = 0; v < n; ++v) clock.emplace(rng::exponential(eng, 1.0), v);

  double now = 0.0;
  std::uint64_t steps = 0;
  while (informed_count < n && steps < cap) {
    const auto [t, v] = clock.top();
    clock.pop();
    now = t;
    ++steps;
    clock.emplace(now + rng::exponential(eng, 1.0), v);
    if (g.degree(v) == 0) {
      if (options.probe != nullptr) probe_empty_contact(*options.probe);
      continue;
    }
    const NodeId w = g.random_neighbor(v, eng);
    const bool lost = options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss);
    if (options.probe != nullptr) {
      probe_instant(*options.probe, options.mode, informed(result.informed_time, v),
                    informed(result.informed_time, w), lost);
    }
    if (!lost) exchange(options.mode, v, w, now, result.informed_time, informed_count);
  }
  result.time = now;
  result.steps = steps;
  result.completed = (informed_count == n);
  return result;
}

/// Packs an ordered adjacent pair into an EventQueue payload.
constexpr std::uint64_t pack_edge(NodeId v, NodeId w) noexcept {
  return (static_cast<std::uint64_t>(v) << 32) | w;
}

AsyncResult run_per_edge_clocks(const Graph& g, NodeId source, rng::Engine& eng,
                                const AsyncOptions& options, std::uint64_t cap) {
  const NodeId n = g.num_nodes();
  AsyncResult result;
  result.informed_time.assign(n, kNeverTime);
  NodeId informed_count = seed_sources(source, options, result.informed_time);

  // One clock per ordered adjacent pair (v, w), rate 1/deg(v); re-armed
  // after each fire. The calendar queue replaces the old binary heap: the
  // aggregate rate is sum_v deg(v)/deg(v) = n, which sizes its buckets.
  // Pops follow strictly increasing timestamps, so the engine consumes
  // randomness in exactly the heap's order (run_async_reference below is
  // the retained oracle; equivalence is pinned in tests/test_fastpath.cpp).
  EventQueue clock(static_cast<double>(n), 2 * g.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    const double rate = 1.0 / static_cast<double>(g.degree(v));
    for (NodeId w : g.neighbors(v)) {
      clock.push(rng::exponential(eng, rate), pack_edge(v, w));
    }
  }

  double now = 0.0;
  std::uint64_t steps = 0;
  while (informed_count < n && steps < cap && !clock.empty()) {
    const EventQueue::Event tick = clock.pop_min();
    const auto v = static_cast<NodeId>(tick.payload >> 32);
    const auto w = static_cast<NodeId>(tick.payload & 0xffffffffu);
    now = tick.t;
    ++steps;
    const double rate = 1.0 / static_cast<double>(g.degree(v));
    clock.push(now + rng::exponential(eng, rate), tick.payload);
    const bool lost = options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss);
    if (options.probe != nullptr) {
      probe_instant(*options.probe, options.mode, informed(result.informed_time, v),
                    informed(result.informed_time, w), lost);
    }
    if (!lost) exchange(options.mode, v, w, now, result.informed_time, informed_count);
  }
  result.time = now;
  result.steps = steps;
  result.completed = (informed_count == n);
  return result;
}

/// The retained per-edge reference: the original binary-heap event loop,
/// kept verbatim as the acceptance oracle for the calendar queue.
AsyncResult run_per_edge_clocks_heap(const Graph& g, NodeId source, rng::Engine& eng,
                                     const AsyncOptions& options, std::uint64_t cap) {
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

std::uint64_t step_cap(const Graph& g, const AsyncOptions& options) noexcept {
  return options.max_ticks != 0 ? options.max_ticks : default_step_cap(g.num_nodes());
}

/// Shared dispatcher: run_async and run_async_reference differ only in the
/// per-edge implementation, so the precondition guard and cap derivation
/// cannot drift apart between the production engine and its oracle.
AsyncResult dispatch_async(const Graph& g, NodeId source, rng::Engine& eng,
                           const AsyncOptions& options,
                           AsyncResult (*per_edge)(const Graph&, NodeId, rng::Engine&,
                                                   const AsyncOptions&, std::uint64_t)) {
  assert(source < g.num_nodes());
  if (options.dynamics != nullptr && options.view != AsyncView::kGlobalClock) {
    throw std::runtime_error("run_async: dynamics overlays need the global-clock view");
  }
  const std::uint64_t cap = step_cap(g, options);
  switch (options.view) {
    case AsyncView::kGlobalClock: return run_global_clock(g, source, eng, options, cap, {});
    case AsyncView::kPerNodeClocks: return run_per_node_clocks(g, source, eng, options, cap);
    case AsyncView::kPerEdgeClocks: return per_edge(g, source, eng, options, cap);
  }
  return {};
}

}  // namespace

std::uint64_t default_step_cap(NodeId n) noexcept {
  const double nn = static_cast<double>(n);
  const double cap = 200.0 * nn * nn * std::log2(nn + 2.0) + 10000.0;
  return cap > 1e18 ? static_cast<std::uint64_t>(1e18) : static_cast<std::uint64_t>(cap);
}

AsyncResult run_async(const Graph& g, NodeId source, rng::Engine& eng,
                      const AsyncOptions& options) {
  return dispatch_async(g, source, eng, options, &run_per_edge_clocks);
}

AsyncResult run_async_reference(const Graph& g, NodeId source, rng::Engine& eng,
                                const AsyncOptions& options) {
  return dispatch_async(g, source, eng, options, &run_per_edge_clocks_heap);
}

AsyncResult run_async_global_clock(const Graph& g, NodeId source, rng::Engine& eng,
                                   const AsyncOptions& options, const InformHook& on_inform) {
  assert(source < g.num_nodes());
  return run_global_clock(g, source, eng, options, step_cap(g, options), on_inform);
}

}  // namespace rumor::core
