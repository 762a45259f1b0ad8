// rumor/core: the unified engine-dispatch surface.
//
// Every protocol engine in this module measures the same thing — the spread
// of one rumor from a source over a graph — but historically each exposed
// its own options struct and call signature, so every scheduler
// hand-switched over engine kinds and re-copied the cross-engine knobs
// (mode, loss, probe, sources, dynamics, caps) at each call site. This
// header is the single surface they route through instead:
//
//   * EngineKind       names every dispatchable engine;
//   * TrialOptions     the shared per-trial knobs, embedded as the base of
//                      every per-engine options struct;
//   * run_trial        one dispatch running one trial of any kind.
//
// Equality contracts (docs/ENGINES.md): for the pre-existing kinds,
// run_trial forwards to the engine entry points with bit-identical
// randomness consumption — routing a caller through run_trial changes no
// output byte. kBatchSync is the exception by design: its lane-parallel
// execution consumes the engine stream in a different order, so it is held
// to *distributional* equality with run_sync (two-sample KS gate,
// dist::ks_two_sample_test), never bit-identity.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/spread_probe.hpp"
#include "rng/rng.hpp"

namespace rumor::dynamics {
class DynamicGraphView;
}  // namespace rumor::dynamics

namespace rumor::core {

/// Which protocol engine runs a trial.
enum class EngineKind : std::uint8_t {
  kSync,       // run_sync: the paper's round-based pp/push/pull
  kAsync,      // run_async: Poisson-clock pp-a/push-a/pull-a
  kAux,        // run_aux: the proof's auxiliary processes ppx/ppy
  kBatchSync,  // run_batch_sync: 64 lane-parallel sync trials per word
};

[[nodiscard]] constexpr const char* engine_name(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::kSync: return "sync";
    case EngineKind::kAsync: return "async";
    case EngineKind::kAux: return "aux";
    case EngineKind::kBatchSync: return "batch_sync";
  }
  return "?";
}

/// How the asynchronous engine realizes its Poisson clocks (async.hpp
/// documents the three equivalent descriptions from Section 2).
enum class AsyncView : std::uint8_t {
  kGlobalClock,
  kPerNodeClocks,
  kPerEdgeClocks,
};

[[nodiscard]] constexpr const char* async_view_name(AsyncView v) noexcept {
  switch (v) {
    case AsyncView::kGlobalClock: return "global-clock";
    case AsyncView::kPerNodeClocks: return "per-node";
    case AsyncView::kPerEdgeClocks: return "per-edge";
  }
  return "?";
}

/// Which auxiliary process run_aux executes (aux_process.hpp).
enum class AuxKind : std::uint8_t {
  kPpx,  // Definition 5 (with the deg/2 forced-pull rule)
  kPpy,  // Definition 7 (plain aggregate pull probability)
};

[[nodiscard]] constexpr const char* aux_kind_name(AuxKind k) noexcept {
  switch (k) {
    case AuxKind::kPpx: return "ppx";
    case AuxKind::kPpy: return "ppy";
  }
  return "?";
}

/// The per-trial knobs shared across engines. Every per-engine options
/// struct (SyncOptions, AsyncOptions, AuxOptions, BatchSyncOptions)
/// derives from this, so one TrialOptions value configures any engine
/// through run_trial and the per-engine structs add only what is genuinely
/// theirs (async clock view, aux kind, lane count). Engines ignore fields
/// outside their feature set — the support matrix is the engine table in
/// docs/ENGINES.md; schedulers that must reject unsupported combinations
/// (the campaign spec parser) do so at validation time.
struct TrialOptions {
  /// Communication mode for every contact.
  Mode mode = Mode::kPushPull;
  /// Abort cap in the engine's native tick unit: rounds for the round-based
  /// engines (sync, aux, batch_sync), steps for the async engine. 0 derives
  /// a generous per-engine default from n (~200 n log n rounds / ~200 n^2
  /// log n steps, far above the O(n log n) worst case for connected graphs)
  /// so runaway loops surface as `completed == false` instead of hanging.
  std::uint64_t max_ticks = 0;
  /// Fault injection (extension): each contact independently carries no
  /// rumor with this probability — a lossy channel in the spirit of the
  /// protocol's original fault-tolerant applications [7, 26]. A loss
  /// thins every exchange identically, so it rescales time by
  /// ~1/(1 - loss) on both models without changing who-wins shapes
  /// (bench_e11_faults measures this). Honored by sync, async, batch_sync.
  double message_loss = 0.0;
  /// Record |informed| after every round into informed_count_history
  /// (round-based engines; the async engine always reports per-node inform
  /// times instead).
  bool record_history = false;
  /// Spread telemetry (spread_probe.hpp): when set, every contact is
  /// counted and its transmissions classified useful/wasted per direction.
  /// Null costs nothing — a probe never changes randomness consumption or
  /// the result; counters accumulate across runs unless the caller resets
  /// them. Unsupported by aux and batch_sync.
  SpreadProbe* probe = nullptr;
  /// Additional nodes informed at tick 0, alongside `source` (extension:
  /// multi-source spreading, e.g. a write accepted by several replicas).
  std::vector<NodeId> extra_sources;
  /// Temporal/weighted overlay (extension, dynamics/churn.hpp): contacts
  /// route through the view (churned adjacency, weighted neighbor choice)
  /// instead of the static CSR. Null = the paper's static model, with the
  /// engine's randomness consumption unchanged. The view is per-trial
  /// mutable state and must not be shared across concurrent runs.
  /// Supported by sync and async (global-clock view) only.
  dynamics::DynamicGraphView* dynamics = nullptr;
};

/// The per-engine selectors run_trial needs beyond the common options.
/// Fields are read only by the engine kind they belong to.
struct TrialExtras {
  AsyncView view = AsyncView::kGlobalClock;  // kAsync
  AuxKind aux = AuxKind::kPpx;               // kAux
};

/// One trial's result in engine-neutral shape.
struct TrialOutcome {
  /// The spreading time in the engine's native unit: rounds for round-based
  /// engines, time units for the async engine.
  double value = 0.0;
  /// Ticks the engine executed: rounds for round-based engines, events for
  /// the async engine (feeds the obs metrics registry).
  std::uint64_t ticks = 0;
  /// False when the engine hit its cap before informing every node.
  bool completed = false;
  /// Round-based engines with record_history: |informed| after round k.
  std::vector<NodeId> informed_count_history;
  /// Async engine: per-node inform times (moved out of AsyncResult).
  std::vector<double> informed_time;
};

/// Runs one trial of `kind` from `source` on `eng`. For every pre-existing
/// kind this is a pure forwarding layer: the underlying engine sees exactly
/// the options and engine state a direct call would, so results — and
/// randomness consumption — are bit-identical to the per-engine entry
/// points. kBatchSync dispatches a single-lane batch (lane width 1), the
/// batch engine's own execution order at its narrowest; fan-out to many
/// lanes is the scheduler's job via run_batch_sync (batch_sync.hpp).
/// Capped runs return completed == false; callers decide whether that is an
/// error (the campaign throws, naming the engine).
[[nodiscard]] TrialOutcome run_trial(EngineKind kind, const Graph& g, NodeId source,
                                     rng::Engine& eng, const TrialOptions& options = {},
                                     const TrialExtras& extras = {});

}  // namespace rumor::core
