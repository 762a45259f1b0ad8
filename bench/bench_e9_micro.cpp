// E9: engine micro-benchmarks.
//
// Measures the throughput of the primitives every experiment is built on:
// RNG variates, uniform neighbor sampling, generator construction, and full
// protocol executions per graph family. This is the ablation harness for
// the engine design choices of docs/ENGINES.md (event-driven async views,
// CSR layout). Timing is steady_clock over a calibrated iteration count — no
// external benchmark framework, so the results flow through the same JSON
// registry as every other experiment.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

/// Compiler barrier: forces `value` to be materialized, so the measured
/// loops cannot be dead-code-eliminated (the classic DoNotOptimize).
template <class T>
void keep_alive(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Times `body(iterations)` and returns nanoseconds per iteration. One
/// warm-up batch, then a measured batch scaled so each case runs long
/// enough (~tens of ms at scale 1) for stable numbers.
double time_ns_per_op(std::uint64_t iterations, const std::function<void(std::uint64_t)>& body) {
  body(iterations / 16 + 1);  // warm-up: touch code and data
  const auto start = std::chrono::steady_clock::now();
  body(iterations);
  const auto stop = std::chrono::steady_clock::now();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count();
  return static_cast<double>(ns) / static_cast<double>(iterations);
}

sim::Json run(const sim::ExperimentContext& ctx) {
  // There is no trial count here. A --trials override below each case's
  // default batch shrinks the batches proportionally (so --trials 8 is an
  // ~8% smoke pass, matching the quick-run pattern of the other
  // experiments); values at or above the defaults change nothing — growing
  // e9 is what --scale is for. The clamp also keeps the product below any
  // uint64 overflow. The interpretation is stated in this experiment's
  // claim string so scripted users are not surprised.
  const std::uint64_t budget_percent =
      ctx.options().trials != 0 ? std::min<std::uint64_t>(ctx.options().trials, 100) : 100;
  const std::uint64_t mult = ctx.scale();
  auto scaled = [&](std::uint64_t base_iters) {
    return std::max<std::uint64_t>(1, base_iters * mult * budget_percent / 100);
  };
  // Honor --seed: every engine below derives from this base.
  const std::uint64_t seed = ctx.seed(1);
  sim::Json rows = sim::Json::array();
  auto add = [&rows](const std::string& name, std::uint64_t iterations, double ns_per_op) {
    sim::Json row = sim::Json::object();
    row.set("primitive", name);
    row.set("iterations", iterations);
    row.set("ns_per_op", ns_per_op);
    row.set("mops_per_sec", ns_per_op > 0.0 ? 1e3 / ns_per_op : 0.0);
    rows.push_back(std::move(row));
  };

  {
    auto eng = rng::derive_stream(seed, 0);
    const std::uint64_t iters = scaled(50'000'000);
    std::uint64_t sink = 0;
    add("rng_next", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink ^= eng.next();
        }));
    keep_alive(sink);
  }
  {
    auto eng = rng::derive_stream(seed, 1);
    const std::uint64_t iters = scaled(20'000'000);
    double sink = 0.0;
    add("rng_exponential", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += rng::exponential(eng, 1.0);
        }));
    keep_alive(sink);
  }
  {
    auto eng = rng::derive_stream(seed, 2);
    const std::uint64_t iters = scaled(50'000'000);
    std::uint64_t sink = 0;
    add("rng_uniform_below", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink ^= rng::uniform_below(eng, 12345);
        }));
    keep_alive(sink);
  }
  for (std::uint32_t dim : {8u, 14u}) {
    const auto g = graph::hypercube(dim);
    auto eng = rng::derive_stream(seed, 3);
    graph::NodeId v = 0;  // random walk keeps the access pattern honest
    const std::uint64_t iters = scaled(20'000'000);
    add("random_neighbor/hypercube(" + std::to_string(dim) + ")", iters,
        time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) v = g.random_neighbor(v, eng);
        }));
    keep_alive(v);
  }
  for (graph::NodeId n : {graph::NodeId(1) << 10, graph::NodeId(1) << 12}) {
    auto eng = rng::derive_stream(seed, 4);
    // 100 builds, not 20: construction is allocation-heavy and its run-to-
    // run variance at 20 iterations approached the normalized CI gate's 2x.
    const std::uint64_t iters = scaled(100);
    std::size_t sink = 0;
    add("build_random_regular(n=" + std::to_string(n) + ",d=6)", iters,
        time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            sink += graph::random_regular(n, 6, eng).num_edges();
          }
        }));
    keep_alive(sink);
  }
  {
    // Pure CSR construction, no RNG: 114688 edges through GraphBuilder.
    const std::uint64_t iters = scaled(100);
    std::size_t sink = 0;
    add("build_hypercube(d=14)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += graph::hypercube(14).num_edges();
        }));
    keep_alive(sink);
  }
  for (std::uint32_t dim : {10u, 14u}) {
    const auto g = graph::hypercube(dim);
    auto eng = rng::derive_stream(seed, 5);
    const std::uint64_t iters = scaled(dim >= 14 ? 20 : 400);
    std::uint64_t sink = 0;
    add("run_sync_pushpull/hypercube(" + std::to_string(dim) + ")", iters,
        time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += core::run_sync(g, 0, eng).rounds;
        }));
    keep_alive(sink);
  }
  // The irregular scan (per-node CSR rows) on the graph where sync waits
  // longest: from hub 0 the rumor crosses the hub-hub edge after ~256
  // rounds of 1024 contacts.
  {
    const auto g = graph::double_star(1024);
    auto eng = rng::derive_stream(seed, 14);
    const std::uint64_t iters = scaled(20);
    std::uint64_t sink = 0;
    add("run_sync_pushpull/double_star(1024)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += core::run_sync(g, 0, eng).rounds;
        }));
    keep_alive(sink);
  }
  // The batch-lane sync engine against the run_sync rows above. One batch
  // is `lanes` trials, so the row reports ns per *trial* (batch time /
  // lanes): lanes=1 is the engine's fixed overhead, lanes=64 is the
  // amortized cost the campaign scheduler pays — the tentpole claim is
  // lanes=64 beating run_sync_pushpull/hypercube(10) by >= 3x per trial.
  for (const std::uint32_t lanes : {1u, 8u, 64u}) {
    const auto g = graph::hypercube(10);
    auto eng = rng::derive_stream(seed, 12);
    core::BatchSyncOptions batch_opts;
    batch_opts.lanes = lanes;
    const std::uint64_t batches = scaled(std::max<std::uint64_t>(8, 400 / lanes));
    std::uint64_t sink = 0;
    const double ns_per_batch = time_ns_per_op(batches, [&](std::uint64_t k) {
      for (std::uint64_t i = 0; i < k; ++i) {
        sink += core::run_batch_sync(g, 0, eng, batch_opts).rounds[0];
      }
    });
    add("batch_sync_spread/hypercube(10)/lanes" + std::to_string(lanes),
        batches * lanes, ns_per_batch / static_cast<double>(lanes));
    keep_alive(sink);
  }
  // Ablation: the three equivalent asynchronous views. Global clock avoids
  // the priority queue entirely; per-edge clocks pay O(log m) per step.
  {
    const auto g = graph::hypercube(10);
    const std::pair<core::AsyncView, const char*> views[] = {
        {core::AsyncView::kGlobalClock, "global_clock"},
        {core::AsyncView::kPerNodeClocks, "per_node_clocks"},
        {core::AsyncView::kPerEdgeClocks, "per_edge_clocks"},
    };
    for (const auto& [view, view_name] : views) {
      auto eng = rng::derive_stream(seed, 6);
      core::AsyncOptions opts;
      opts.view = view;
      const std::uint64_t iters = scaled(50);
      std::uint64_t sink = 0;
      add(std::string("run_async/") + view_name + "/hypercube(10)", iters,
          time_ns_per_op(iters, [&](std::uint64_t k) {
            for (std::uint64_t i = 0; i < k; ++i) sink += core::run_async(g, 0, eng, opts).steps;
          }));
      keep_alive(sink);
    }
  }
  // The idle-tick case: from hub 0 the rumor waits ~256 time units for
  // the hub-hub edge, so almost every global-clock tick changes nothing
  // and this row is mostly the clock's per-tick cost.
  {
    const auto g = graph::double_star(1024);
    auto eng = rng::derive_stream(seed, 13);
    const std::uint64_t iters = scaled(20);
    std::uint64_t sink = 0;
    add("run_async/global_clock/double_star(1024)", iters,
        time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += core::run_async(g, 0, eng).steps;
        }));
    keep_alive(sink);
  }
  {
    const auto g = graph::hypercube(10);
    auto eng = rng::derive_stream(seed, 7);
    const std::uint64_t iters = scaled(200);
    std::uint64_t sink = 0;
    core::AuxOptions aux_opts;
    aux_opts.kind = core::AuxKind::kPpx;
    add("run_aux_ppx/hypercube(10)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            sink += core::run_aux(g, 0, eng, aux_opts).rounds;
          }
        }));
    keep_alive(sink);
  }
  {
    const auto g = graph::hypercube(8);
    auto eng = rng::derive_stream(seed, 8);
    const std::uint64_t iters = scaled(100);
    std::uint64_t sink = 0;
    add("run_pull_coupling/hypercube(8)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            sink += core::run_pull_coupling(g, 0, eng).completed ? 1u : 0u;
          }
        }));
    keep_alive(sink);
  }
  // Fast-path primitives: the bitset commit scan of the sync engine and the
  // calendar-vs-heap event queue ablation (hold model: pop the minimum,
  // re-arm it one Exp(1) gap later — exactly the per-edge view's pattern).
  {
    auto eng = rng::derive_stream(seed, 10);
    constexpr graph::NodeId kBits = 1u << 16;
    core::InformedSet informed(kBits);
    for (graph::NodeId v = 0; v < kBits; ++v) {
      if (eng.next() & 1u) informed.set(v);  // a mixing round: ~half informed
    }
    const std::uint64_t iters = scaled(2'000);
    std::uint64_t sink = 0;
    add("informed_set_word_scan(n=65536)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            informed.for_each([&sink](graph::NodeId v) { sink += v; });
          }
        }));
    keep_alive(sink);
  }
  {
    constexpr std::size_t kClocks = 8192;
    auto eng = rng::derive_stream(seed, 11);
    core::EventQueue queue(static_cast<double>(kClocks), kClocks);
    for (std::size_t c = 0; c < kClocks; ++c) {
      queue.push(rng::exponential(eng, 1.0), c);
    }
    const std::uint64_t iters = scaled(1'000'000);
    double sink = 0.0;
    add("event_queue_push_pop(hold,n=8192)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            const auto ev = queue.pop_min();
            sink += ev.t;
            queue.push(ev.t + rng::exponential(eng, 1.0), ev.payload);
          }
        }));
    keep_alive(sink);
  }
  {
    constexpr std::size_t kClocks = 8192;
    auto eng = rng::derive_stream(seed, 11);  // same stream: identical workload
    using Tick = std::pair<double, std::uint64_t>;
    std::priority_queue<Tick, std::vector<Tick>, std::greater<>> queue;
    for (std::size_t c = 0; c < kClocks; ++c) {
      queue.emplace(rng::exponential(eng, 1.0), c);
    }
    const std::uint64_t iters = scaled(1'000'000);
    double sink = 0.0;
    add("binary_heap_push_pop(hold,n=8192)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) {
            const auto [t, payload] = queue.top();
            queue.pop();
            sink += t;
            queue.emplace(t + rng::exponential(eng, 1.0), payload);
          }
        }));
    keep_alive(sink);
  }
  {
    const auto g = graph::hypercube(8);
    auto eng = rng::derive_stream(seed, 9);
    const std::uint64_t iters = scaled(100);
    std::uint64_t sink = 0;
    add("run_block_coupling/hypercube(8)", iters, time_ns_per_op(iters, [&](std::uint64_t k) {
          for (std::uint64_t i = 0; i < k; ++i) sink += core::run_block_coupling(g, 0, eng).rounds;
        }));
    keep_alive(sink);
  }

  sim::Json body = sim::Json::object();
  body.set("rows", std::move(rows));
  body.set("notes",
           "Primitive throughputs for the docs/ENGINES.md ablations: the global-clock "
           "async view should beat the per-edge bucket-queue view; "
           "uniform-neighbor sampling is the protocol inner loop. The fast-path "
           "rows pin the engine cores: informed_set_word_scan is the sync "
           "engine's commit primitive, and the event_queue vs binary_heap hold "
           "rows show the calendar queue beating the heap it replaced. The "
           "batch_sync_spread rows report per-trial cost (batch time / lanes); "
           "lanes=64 should beat run_sync_pushpull/hypercube(10) by >= 3x.");
  return body;
}

const sim::ExperimentRegistrar kRegistrar{{
    .name = "e9_micro",
    .title = "engine micro-benchmarks (RNG, CSR sampling, engines)",
    .claim = "Global-clock async beats per-edge clocks; primitives in the ns range. "
             "(--trials < 100 shrinks iteration batches to that percent; "
             "values >= 100 are the default — use --scale to grow.)",
    .defaults = "seed=1; calibrated iteration batches (no trial count; --trials = % budget)",
    .run = run,
}};

}  // namespace
