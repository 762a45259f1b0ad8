#include "obs/metrics.hpp"

#include <bit>

namespace rumor::obs {

void Histogram::add(std::uint64_t value) noexcept {
  // bit_width(0) == 0, bit_width(1) == 1, ...: zeros land in bucket 0 and
  // [2^(b-1), 2^b) in bucket b, capped defensively at the top bucket.
  const auto b = static_cast<std::size_t>(std::bit_width(value));
  buckets[b < kBuckets ? b : kBuckets - 1] += 1;
  count += 1;
  sum += value;
  if (value < min) min = value;
  if (value > max) max = value;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

void WorkerMetrics::merge(const WorkerMetrics& other) noexcept {
  blocks_executed += other.blocks_executed;
  trials_simulated += other.trials_simulated;
  sync_rounds += other.sync_rounds;
  async_events += other.async_events;
  lane_trials += other.lane_trials;
  graph_builds += other.graph_builds;
  graph_frees += other.graph_frees;
  busy_ns += other.busy_ns;
  idle_ns += other.idle_ns;
}

}  // namespace rumor::obs
