#include "support/coupling_push.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>

#include "core/informed_set.hpp"
#include "core/sync.hpp"

namespace rumor::core {

namespace {

/// Lazily materialized push-target table X_{v,i}, shared by both runs.
class PushTable {
 public:
  PushTable(const Graph& g, rng::Engine& eng) : g_(g), eng_(eng), x_(g.num_nodes()) {}

  [[nodiscard]] NodeId target(NodeId v, std::uint64_t i) {
    auto& seq = x_[v];
    while (seq.size() < i) seq.push_back(g_.random_neighbor(v, eng_));
    return seq[i - 1];
  }

 private:
  const Graph& g_;
  rng::Engine& eng_;
  std::vector<std::vector<NodeId>> x_;
};

}  // namespace

std::uint64_t PushCoupledRun::push_rounds() const {
  return *std::max_element(round_push.begin(), round_push.end());
}

double PushCoupledRun::push_a_time() const {
  return *std::max_element(time_push_a.begin(), time_push_a.end());
}

PushCoupledRun run_push_coupling(const Graph& g, NodeId source, rng::Engine& eng,
                                 const PushCouplingOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);
  const std::uint64_t cap =
      options.max_rounds != 0 ? options.max_rounds : default_round_cap(n);

  PushTable table(g, eng);
  PushCoupledRun run;

  // --- Synchronous push on the table ---------------------------------------
  // Membership lives in an InformedSet (informed_set.hpp): the informed-set
  // word scan enumerates exactly the nodes the original full scan selected
  // (ascending ids with round_push < r), so the X_{v,i} consumption order —
  // and hence every sampled bit — is unchanged.
  run.round_push.assign(n, kNeverRound);
  run.round_push[source] = 0;
  InformedSet informed(n);
  InformedSet pending(n);
  informed.set(source);
  NodeId informed_sync = 1;
  for (std::uint64_t r = 1; informed_sync < n && r <= cap; ++r) {
    informed.for_each([&](NodeId v) {
      const NodeId w = table.target(v, r - run.round_push[v]);
      if (!informed.test(w)) pending.set(w);
    });
    informed_sync +=
        informed.absorb_drain(pending, [&](NodeId w) { run.round_push[w] = r; });
  }

  // --- Asynchronous push on the same table ----------------------------------
  // Each informed node's i-th tick after its inform time pushes to the same
  // X_{v,i}. Tick gaps are fresh Exp(1) draws — the coupling constrains the
  // *targets*, not the clocks.
  run.time_push_a.assign(n, kNeverTime);
  struct Tick {
    double t;
    NodeId v;
    std::uint64_t i;
    bool operator>(const Tick& o) const noexcept { return t > o.t; }
  };
  std::priority_queue<Tick, std::vector<Tick>, std::greater<>> ticks;
  InformedSet informed_a(n);
  NodeId informed_async = 0;
  auto inform = [&](NodeId v, double t) {
    run.time_push_a[v] = t;
    informed_a.set(v);
    ++informed_async;
    ticks.push(Tick{t + rng::exponential(eng, 1.0), v, 1});
  };
  inform(source, 0.0);
  // Async cap mirrors the sync cap: push spreading times coincide within
  // constants [24], so 8x + log-slack is ample.
  const double time_cap =
      8.0 * static_cast<double>(cap) + 64.0 * std::log(static_cast<double>(n) + 2.0);
  while (informed_async < n && !ticks.empty()) {
    const Tick tick = ticks.top();
    ticks.pop();
    if (tick.t > time_cap) break;
    const NodeId w = table.target(tick.v, tick.i);
    if (!informed_a.test(w)) inform(w, tick.t);
    ticks.push(Tick{tick.t + rng::exponential(eng, 1.0), tick.v, tick.i + 1});
  }

  run.completed = (informed_sync == n) && (informed_async == n);
  return run;
}

}  // namespace rumor::core
