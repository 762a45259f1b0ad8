#include "core/trial.hpp"

#include <stdexcept>
#include <utility>

#include "core/async.hpp"
#include "core/aux_process.hpp"
#include "core/batch_sync.hpp"
#include "core/sync.hpp"

namespace rumor::core {

TrialOutcome run_trial(EngineKind kind, const Graph& g, NodeId source, rng::Engine& eng,
                       const TrialOptions& options, const TrialExtras& extras) {
  TrialOutcome out;
  switch (kind) {
    case EngineKind::kSync: {
      const SyncOptions engine_options{options};
      auto result = run_sync(g, source, eng, engine_options);
      out.value = static_cast<double>(result.rounds);
      out.ticks = result.rounds;
      out.completed = result.completed;
      out.informed_count_history = std::move(result.informed_count_history);
      return out;
    }
    case EngineKind::kAsync: {
      AsyncOptions engine_options{options};
      engine_options.view = extras.view;
      auto result = run_async(g, source, eng, engine_options);
      out.value = result.time;
      out.ticks = result.steps;
      out.completed = result.completed;
      out.informed_time = std::move(result.informed_time);
      return out;
    }
    case EngineKind::kAux: {
      AuxOptions engine_options{options};
      engine_options.kind = extras.aux;
      auto result = run_aux(g, source, eng, engine_options);
      out.value = static_cast<double>(result.rounds);
      out.ticks = result.rounds;
      out.completed = result.completed;
      out.informed_count_history = std::move(result.informed_count_history);
      return out;
    }
    case EngineKind::kBatchSync: {
      // The single-trial face of the batch engine: one lane, so the lane
      // loop degenerates to the batch execution order at width 1. Fan-out
      // belongs to schedulers via run_batch_sync directly.
      BatchSyncOptions engine_options{options};
      engine_options.lanes = 1;
      const auto result = run_batch_sync(g, source, eng, engine_options);
      out.value = static_cast<double>(result.rounds[0]);
      out.ticks = result.rounds[0];
      out.completed = result.completed;
      return out;
    }
  }
  throw std::runtime_error("run_trial: unknown engine kind");
}

}  // namespace rumor::core
