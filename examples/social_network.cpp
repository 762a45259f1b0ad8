// Social-network scenario: how fast does a rumor reach most of a power-law
// network, synchronously vs asynchronously?
//
// The paper's introduction motivates the asynchronous model with
// information spread in social networks: on Chung-Lu power-law graphs [16]
// and preferential-attachment graphs [9], asynchronous push-pull reaches a
// large fraction of the nodes *faster* than the synchronous protocol, even
// though (Theorem 1) it can never be much slower to reach everyone.
//
// This example builds both topologies, spreads a rumor from a random
// low-degree node, and prints the time to reach 50% / 90% / 100% of the
// network under each model, plus an ASCII trajectory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/rumor.hpp"
#include "sim/harness.hpp"
#include "sim/table.hpp"

using namespace rumor;

namespace {

/// The round or time by which ceil(fraction * n) of the n nodes were
/// informed: that order statistic of the per-node inform rounds/times.
/// Reorders `informed`.
template <class T>
double reach_time(std::vector<T>& informed, double fraction) {
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(informed.size())) - 1);
  std::nth_element(informed.begin(), informed.begin() + static_cast<std::ptrdiff_t>(k),
                   informed.end());
  return static_cast<double>(informed[k]);
}

struct FractionTimes {
  double half = 0.0;
  double ninety = 0.0;
  double all = 0.0;
};

FractionTimes measure_sync_fractions(const graph::Graph& g, graph::NodeId source,
                                     std::uint64_t trials) {
  FractionTimes acc;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto eng = rng::derive_stream(101, t);
    auto r = core::run_sync(g, source, eng);
    acc.half += reach_time(r.informed_round, 0.5);
    acc.ninety += reach_time(r.informed_round, 0.9);
    acc.all += static_cast<double>(r.rounds);
  }
  acc.half /= static_cast<double>(trials);
  acc.ninety /= static_cast<double>(trials);
  acc.all /= static_cast<double>(trials);
  return acc;
}

FractionTimes measure_async_fractions(const graph::Graph& g, graph::NodeId source,
                                      std::uint64_t trials) {
  FractionTimes acc;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto eng = rng::derive_stream(102, t);
    auto r = core::run_async(g, source, eng);
    acc.half += reach_time(r.informed_time, 0.5);
    acc.ninety += reach_time(r.informed_time, 0.9);
    acc.all += r.time;
  }
  acc.half /= static_cast<double>(trials);
  acc.ninety /= static_cast<double>(trials);
  acc.all /= static_cast<double>(trials);
  return acc;
}

void print_trajectory(const graph::Graph& g, graph::NodeId source) {
  auto eng = rng::derive_stream(103, 0);
  auto r = core::run_async(g, source, eng);
  // Every node of the connected graph is informed: the sorted inform times
  // are the trajectory, the k-th entry the time the (k+1)-th node learned.
  std::vector<double>& traj = r.informed_time;
  std::sort(traj.begin(), traj.end());
  std::printf("\n  one async run on %s (informed fraction over time):\n", g.name().c_str());
  const int rows = 12;
  for (int i = 1; i <= rows; ++i) {
    const double frac = static_cast<double>(i) / rows;
    const auto idx = static_cast<std::size_t>(frac * static_cast<double>(traj.size())) - 1;
    const double t = traj[std::min(idx, traj.size() - 1)];
    const int bars = static_cast<int>(frac * 50);
    std::printf("  t=%6.2f  |%-50.*s| %3.0f%%\n", t, bars,
                "##################################################", frac * 100);
  }
}

}  // namespace

int main() {
  constexpr graph::NodeId kNodes = 4096;
  constexpr std::uint64_t kTrials = 100;
  rng::Engine gen_eng = rng::derive_stream(100, 0);

  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::largest_component(
      graph::chung_lu(kNodes, {.beta = 2.5, .average_degree = 8.0}, gen_eng)));
  graphs.push_back(graph::preferential_attachment(kNodes, 3, gen_eng));

  std::printf("Rumor spreading in social-network topologies (%llu trials each)\n",
              static_cast<unsigned long long>(kTrials));
  std::printf("sync times in rounds, async in time units; both are 'n contacts per unit'.\n\n");

  sim::Table table({"graph", "model", "t(50%)", "t(90%)", "t(100%)"});
  for (const auto& g : graphs) {
    // A low-degree source: the last node added (PA) / lowest-weight node
    // (Chung-Lu) sits at the network's periphery.
    const graph::NodeId source = g.num_nodes() - 1;
    const auto sync = measure_sync_fractions(g, source, kTrials);
    const auto async = measure_async_fractions(g, source, kTrials);
    table.add_row({g.name(), "sync pp", sim::fmt_cell("%.2f", sync.half),
                   sim::fmt_cell("%.2f", sync.ninety), sim::fmt_cell("%.2f", sync.all)});
    table.add_row({g.name(), "async pp", sim::fmt_cell("%.2f", async.half),
                   sim::fmt_cell("%.2f", async.ninety), sim::fmt_cell("%.2f", async.all)});
  }
  table.print();

  print_trajectory(graphs[1], graphs[1].num_nodes() - 1);

  std::printf(
      "\nReading: async reaches 50%%/90%% faster on these heavy-tailed graphs\n"
      "(the [9],[16] effect), while the 100%% column stays within Theorem 1's\n"
      "O(sync + log n) envelope.\n");
  return 0;
}
