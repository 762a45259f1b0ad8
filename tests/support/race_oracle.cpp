#include "support/race_oracle.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/trial.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"

namespace rumor::sim {

namespace {

constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;

std::vector<graph::NodeId> stratified_candidates(const graph::Graph& g,
                                                 std::uint32_t max_candidates) {
  const graph::NodeId n = g.num_nodes();
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  if (max_candidates == 0 || n <= max_candidates) return order;
  // Ascending degree, ties by ascending node id: a stable sort of the
  // id-ordered list.
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::NodeId a, graph::NodeId b) { return g.degree(a) < g.degree(b); });
  if (max_candidates == 1) return {order.front()};
  std::vector<graph::NodeId> picked;
  const double stride = static_cast<double>(n - 1) / (max_candidates - 1);
  for (std::uint32_t i = 0; i < max_candidates; ++i) {
    picked.push_back(order[static_cast<std::size_t>(i * stride)]);
  }
  return picked;
}

/// Mean of `trials` trials from `u`, trial t on derive_stream(stream_seed, t).
double mean_time(const graph::Graph& g, EngineKind engine, core::Mode mode, graph::NodeId u,
                 std::uint64_t stream_seed, std::uint64_t trials) {
  core::TrialOptions options;
  options.mode = mode;
  stats::RunningMoments moments;
  for (std::uint64_t t = 0; t < trials; ++t) {
    rng::Engine eng = rng::derive_stream(stream_seed, t);
    moments.add(core::run_trial(engine, g, u, eng, options).value);
  }
  return moments.mean();
}

}  // namespace

WorstSourceResult find_worst_source(const graph::Graph& g, EngineKind engine, core::Mode mode,
                                    const SourceRaceOptions& race, std::uint64_t trials,
                                    std::uint64_t seed) {
  std::vector<std::pair<double, graph::NodeId>> screened;
  for (const graph::NodeId u : stratified_candidates(g, race.max_candidates)) {
    screened.emplace_back(
        mean_time(g, engine, mode, u, seed + kSourceStride * u, race.screen_trials), u);
  }
  std::sort(screened.begin(), screened.end(), std::greater<>());
  screened.resize(std::min<std::size_t>(race.finalists, screened.size()));

  const std::uint64_t final_trials = race.final_trials != 0 ? race.final_trials : trials;
  WorstSourceResult out;
  for (std::size_t i = 0; i < screened.size(); ++i) {
    const graph::NodeId u = screened[i].second;
    const double mean = mean_time(g, engine, mode, u, seed + 1 + kSourceStride * u, final_trials);
    if (i == 0 || mean > out.mean_time) {
      out.source = u;
      out.mean_time = mean;
    }
    if (i == 0 || mean < out.best_mean_time) {
      out.best_source = u;
      out.best_mean_time = mean;
    }
  }
  return out;
}

}  // namespace rumor::sim
