#include "core/async.hpp"

#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "core/scan_kind.hpp"
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

/// Membership test shared by exchange and the probes (the global-clock loop
/// inlines it on its hoisted data pointer). Not a comparison with `now`:
/// after a zero-length gap (the draw u == 1, or now + gap == now) a node
/// informed at the current instant, or the source at time 0, would look
/// uninformed.
bool informed(const std::vector<double>& informed_time, NodeId x) noexcept {
  return informed_time[x] != kNeverTime;
}

/// The global clock folds its running product of uniforms below this
/// (see global_clock_loop).
constexpr double kFoldBelow = 0x1p-960;

/// The exchange rule of the per-node and per-edge views: node v contacts
/// node w at time `now`; the uninformed endpoint learns the rumor if the
/// mode carries it that way.
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

/// The global-clock tick loop, specialized per (mode, loss, scan kind,
/// probe) like sync's run_rounds, so a tick tests none of them. Every
/// specialization makes the same draws in the same order: the clock
/// uniform u, the caller uniform_below(n), the callee draw (the CSR row,
/// the flat stride `flat[v*d + uniform_below(d)]` on regular graphs, or
/// the view), then bernoulli(loss) on every non-empty contact under loss.
//
// The clock: tick k comes -log(u_k)/n after tick k-1. Only informs, the
// dynamics view and the final time read the clock, and -sum log u_k equals
// -log prod u_k, so each tick multiplies its uniform into `prod` and `fold`
// pays one log for the whole run of ticks since the last fold. Folding once
// prod < 2^-960 keeps it normal: every u is >= 2^-53.
//
// The engine is copied into a local and written back at exit
// (docs/ENGINES.md, "The two hot loops"); held by reference, its state
// would round-trip through memory on every draw.
template <Mode M, bool HasLoss, ScanKind K, bool HasProbe>
AsyncResult global_clock_loop(const Graph& g, NodeId source, rng::Engine& caller_eng,
                              const AsyncOptions& options, std::uint64_t cap,
                              const InformHook& on_inform) {
  const NodeId n = g.num_nodes();
  AsyncResult result;
  result.informed_time.assign(n, kNeverTime);
  NodeId informed_count = seed_sources(source, options, result.informed_time);
  double* const time = result.informed_time.data();

  rng::Engine eng = caller_eng;
  dynamics::DynamicGraphView* const view = options.dynamics;
  SpreadProbe* const probe = options.probe;
  const double loss = options.message_loss;
  const std::uint32_t regular_degree = K == ScanKind::kRegular ? g.degree(0) : 0;
  const NodeId* const flat_neighbors =
      K == ScanKind::kRegular ? g.neighbors(0).data() : nullptr;

  double now = 0.0;
  double prod = 1.0;
  std::uint64_t steps = 0;
  const double rate = static_cast<double>(n);
  auto fold = [&] {
    now -= std::log(prod) / rate;
    prod = 1.0;
  };
  while (informed_count < n && steps < cap) {
    prod *= rng::uniform01_open_low(eng);
    ++steps;
    if (prod < kFoldBelow) fold();
    if constexpr (K == ScanKind::kView) {
      fold();
      view->advance_time(now);  // churn epochs track the clock
    }
    const NodeId v = static_cast<NodeId>(rng::uniform_below(eng, n));
    NodeId w;
    if constexpr (K == ScanKind::kRegular) {
      w = flat_neighbors[static_cast<std::size_t>(v) * regular_degree +
                         rng::uniform_below(eng, regular_degree)];
    } else {
      const std::uint32_t deg = K == ScanKind::kView ? view->degree(v) : g.degree(v);
      if (deg == 0) {
        if constexpr (HasProbe) probe_empty_contact(*probe);
        continue;
      }
      w = K == ScanKind::kView ? view->sample(v, eng) : g.random_neighbor(v, eng);
    }
    bool lost = false;
    if constexpr (HasLoss) lost = rng::bernoulli(eng, loss);
    const bool v_in = time[v] != kNeverTime;
    const bool w_in = time[w] != kNeverTime;
    if constexpr (HasProbe) probe_instant(*probe, M, v_in, w_in, lost);
    if (lost || v_in == w_in) continue;
    if constexpr (M == Mode::kPush) {
      if (!v_in) continue;
    } else if constexpr (M == Mode::kPull) {
      if (!w_in) continue;
    }
    const NodeId informer = v_in ? v : w;
    const NodeId target = v_in ? w : v;
    fold();
    time[target] = now;
    ++informed_count;
    if (on_inform) on_inform(informer, target);
  }
  fold();
  result.time = now;
  result.steps = steps;
  result.completed = (informed_count == n);
  caller_eng = eng;
  return result;
}

AsyncResult run_global_clock(const Graph& g, NodeId source, rng::Engine& eng,
                             const AsyncOptions& options, std::uint64_t cap,
                             const InformHook& on_inform) {
  return specialize(options.mode, options.message_loss > 0.0,
                    choose_scan(g, options.dynamics != nullptr), options.probe != nullptr,
                    [&]<Mode M, bool HasLoss, ScanKind K, bool HasProbe>() {
                      return global_clock_loop<M, HasLoss, K, HasProbe>(g, source, eng, options,
                                                                        cap, on_inform);
                    });
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
  // randomness in exactly the heap's order (run_async_reference in
  // tests/support is the retained oracle; tests/test_fastpath.cpp pins the
  // equivalence).
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

std::uint64_t step_cap(const Graph& g, const AsyncOptions& options) noexcept {
  return options.max_ticks != 0 ? options.max_ticks : default_step_cap(g.num_nodes());
}

}  // namespace

std::uint64_t default_step_cap(NodeId n) noexcept {
  const double nn = static_cast<double>(n);
  const double cap = 200.0 * nn * nn * std::log2(nn + 2.0) + 10000.0;
  return cap > 1e18 ? static_cast<std::uint64_t>(1e18) : static_cast<std::uint64_t>(cap);
}

AsyncResult run_async(const Graph& g, NodeId source, rng::Engine& eng,
                      const AsyncOptions& options) {
  assert(source < g.num_nodes());
  if (options.dynamics != nullptr && options.view != AsyncView::kGlobalClock) {
    throw std::runtime_error("run_async: dynamics overlays need the global-clock view");
  }
  const std::uint64_t cap = step_cap(g, options);
  switch (options.view) {
    case AsyncView::kGlobalClock: return run_global_clock(g, source, eng, options, cap, {});
    case AsyncView::kPerNodeClocks: return run_per_node_clocks(g, source, eng, options, cap);
    case AsyncView::kPerEdgeClocks: return run_per_edge_clocks(g, source, eng, options, cap);
  }
  return {};
}

AsyncResult run_async_global_clock(const Graph& g, NodeId source, rng::Engine& eng,
                                   const AsyncOptions& options, const InformHook& on_inform) {
  assert(source < g.num_nodes());
  return run_global_clock(g, source, eng, options, step_cap(g, options), on_inform);
}

}  // namespace rumor::core
