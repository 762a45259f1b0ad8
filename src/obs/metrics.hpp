// rumor/obs: the campaign metrics registry.
//
// Telemetry is sharded per worker: each scheduler worker owns a plain
// (non-atomic) WorkerMetrics it alone mutates, so the instrumented hot path
// costs an increment, never a contended atomic or lock. A MetricsSnapshot
// merges the shards *in worker-index order* after the pool joins.
//
// Determinism contract (tested in tests/test_obs.cpp): the counters below
// marked "exact" are integer totals of deterministic per-block quantities,
// and integer addition commutes — so blocks_executed, trials_simulated,
// graph_builds/graph_frees, the engine round/event totals and lane_trials
// are identical at any thread count for a fixed campaign (lane_trials also
// depends on the CPU: it stays 0 without AVX-512). Durations (busy/idle,
// checkpoint latency) and queue-depth samples are wall-clock observations:
// reported, never gated, and never allowed to feed back into scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rumor::obs {

/// Log2-bucketed histogram for latency and depth samples: bucket b counts
/// values in [2^(b-1), 2^b), bucket 0 counts zeros. Fixed footprint, O(1)
/// add, exact count/sum/min/max alongside the bucketed shape.
struct Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;

  void add(std::uint64_t value) noexcept;
  void merge(const Histogram& other) noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// One worker's counter shard. "exact" fields obey the determinism contract
/// above; the rest are observational wall-clock quantities.
struct WorkerMetrics {
  std::uint64_t blocks_executed = 0;   // exact
  std::uint64_t trials_simulated = 0;  // exact (screen + refine trials included)
  std::uint64_t sync_rounds = 0;       // exact: rounds of round-based engines
  std::uint64_t async_events = 0;      // exact: steps of the async engine
  std::uint64_t lane_trials = 0;       // exact: trials run on trial lanes (core/trial_lanes.hpp)
  std::uint64_t graph_builds = 0;      // exact
  std::uint64_t graph_frees = 0;       // exact
  std::uint64_t busy_ns = 0;           // pop-to-finish time across blocks
  std::uint64_t idle_ns = 0;           // time blocked on the queue

  void merge(const WorkerMetrics& other) noexcept;
};

/// Per-configuration cost attribution (the breakdown stats.telemetry and
/// trace_report.py surface). blocks/trials are exact; busy_ns is wall time.
struct ConfigCost {
  std::uint64_t blocks = 0;
  std::uint64_t trials = 0;
  std::uint64_t busy_ns = 0;

  void merge(const ConfigCost& other) noexcept {
    blocks += other.blocks;
    trials += other.trials;
    busy_ns += other.busy_ns;
  }
};

/// The merged registry view: totals, the per-worker shards they came from
/// (worker-index order), and the per-config attribution (config order).
struct MetricsSnapshot {
  WorkerMetrics totals;
  std::vector<WorkerMetrics> workers;
  std::vector<ConfigCost> per_config;     // indexed like the campaign's configs
  std::vector<std::string> config_ids;    // same indexing
  Histogram queue_depth;                  // queue length sampled at every pop
  Histogram checkpoint_write_ns;          // render + durable write, per checkpoint
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t blocks_scheduled = 0;     // pushes observed by the queue
  std::uint64_t wall_ns = 0;              // begin() to snapshot time
};

}  // namespace rumor::obs
