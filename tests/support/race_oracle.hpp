// Test support (namespace rumor::sim): a serial worst-source race, the
// oracle for SourcePolicy::kRace campaign cells.
//
// It states the race's rules as plain loops, with no scheduler, blocks or
// merges in between:
//   * candidates: every node, or `max_candidates` of them stratified by
//     degree (sort by degree, take every k-th, both extremes included);
//   * screen: candidate u's trial t runs core::run_trial on
//     derive_stream(seed + 0x9e3779b9·u, t);
//   * finalists: the `finalists` highest screening means, ties broken
//     toward the larger node id (a descending sort of (mean, id) pairs);
//   * refine: finalist u's trial t runs on
//     derive_stream(seed + 1 + 0x9e3779b9·u, t), `final_trials` of them
//     (the configuration's `trials` when 0);
//   * the worst source is the first finalist, in ranking order, with the
//     highest refined mean, the best source the first with the lowest.
#pragma once

#include <cstdint>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "sim/campaign.hpp"

namespace rumor::sim {

struct WorstSourceResult {
  graph::NodeId source = 0;       // the worst source found
  double mean_time = 0.0;         // its refined mean spreading time
  graph::NodeId best_source = 0;  // the best finalist
  double best_mean_time = 0.0;
};

/// Runs the race above serially on `g` with the engine's default options.
[[nodiscard]] WorstSourceResult find_worst_source(const graph::Graph& g, EngineKind engine,
                                                  core::Mode mode, const SourceRaceOptions& race,
                                                  std::uint64_t trials, std::uint64_t seed);

}  // namespace rumor::sim
