#include "support/informing_forest.hpp"

#include <cassert>

namespace rumor::core {

std::uint32_t InformingForest::path_length(NodeId v) const {
  std::uint32_t hops = 0;
  while (parent[v] != kNoParent) {
    v = parent[v];
    ++hops;
    assert(hops <= parent.size() && "cycle in informing forest");
  }
  return hops;
}

std::uint32_t InformingForest::depth() const {
  std::uint32_t deepest = 0;
  for (NodeId v = 0; v < parent.size(); ++v) {
    if (parent[v] != kNoParent) deepest = std::max(deepest, path_length(v));
  }
  return deepest;
}

SyncForestRun run_sync_with_forest(const Graph& g, NodeId source, rng::Engine& eng,
                                   const SyncOptions& options) {
  // Mirrors run_sync exactly (same draw order, same commit discipline) with
  // informer bookkeeping added; informing ties within a round resolve to
  // the first committed contact, a valid "first informer" under the
  // pre-round snapshot semantics.
  const NodeId n = g.num_nodes();
  assert(source < n);

  SyncForestRun run;
  run.result.informed_round.assign(n, kNeverRound);
  run.result.informed_round[source] = 0;
  run.forest.parent.assign(n, kNoParent);
  NodeId informed_count = 1;
  for (NodeId extra : options.extra_sources) {
    if (run.result.informed_round[extra] == kNeverRound) {
      run.result.informed_round[extra] = 0;
      ++informed_count;
    }
  }
  if (options.record_history) run.result.informed_count_history.push_back(informed_count);

  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  struct Pending {
    NodeId node;
    NodeId informer;
  };
  std::vector<Pending> newly;
  for (std::uint64_t r = 1; informed_count < n && r <= cap; ++r) {
    newly.clear();
    auto informed_before = [&](NodeId v) { return run.result.informed_round[v] < r; };
    for (NodeId v = 0; v < n; ++v) {
      if (g.degree(v) == 0) continue;
      const NodeId w = g.random_neighbor(v, eng);
      const bool v_in = informed_before(v);
      const bool w_in = informed_before(w);
      if (v_in == w_in) continue;
      if (options.message_loss > 0.0 && rng::bernoulli(eng, options.message_loss)) continue;
      switch (options.mode) {
        case Mode::kPush:
          if (v_in && run.result.informed_round[w] == kNeverRound) newly.push_back({w, v});
          break;
        case Mode::kPull:
          if (w_in && run.result.informed_round[v] == kNeverRound) newly.push_back({v, w});
          break;
        case Mode::kPushPull:
          if (v_in) {
            if (run.result.informed_round[w] == kNeverRound) newly.push_back({w, v});
          } else {
            if (run.result.informed_round[v] == kNeverRound) newly.push_back({v, w});
          }
          break;
      }
    }
    for (const Pending& p : newly) {
      if (run.result.informed_round[p.node] == kNeverRound) {
        run.result.informed_round[p.node] = r;
        run.forest.parent[p.node] = p.informer;
        ++informed_count;
      }
    }
    if (options.record_history) run.result.informed_count_history.push_back(informed_count);
    run.result.rounds = r;
  }

  run.result.completed = (informed_count == n);
  if (!run.result.completed) run.result.rounds = cap;
  run.forest.completed = run.result.completed;
  return run;
}

AsyncForestRun run_async_with_forest(const Graph& g, NodeId source, rng::Engine& eng,
                                     const AsyncOptions& options) {
  AsyncForestRun run;
  run.forest.parent.assign(g.num_nodes(), kNoParent);
  run.result = run_async_global_clock(
      g, source, eng, options,
      [&parent = run.forest.parent](NodeId informer, NodeId target) { parent[target] = informer; });
  run.forest.completed = run.result.completed;
  return run;
}

}  // namespace rumor::core
