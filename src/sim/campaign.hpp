// rumor/sim: batched multi-graph trial scheduling with streaming statistics.
//
// The paper's claims are sweeps: spreading-time distributions across graph
// families, sizes, protocol modes, and sources. A campaign schedules the
// whole configuration set as one shared work queue of fixed-size *trial
// blocks*, keeping every core busy across configuration boundaries, and
// reduces each configuration to a constant-size stats::StreamingSummary as
// its blocks complete — partials are freed the moment a configuration's
// last block finishes, so memory is bounded by the in-flight
// configurations, not by the campaign size.
//
// Graph residency: each run keeps one table entry per distinct graph — the
// `prebuilt` object, a store path, or the generator spec with its graph
// seed resolved — so configurations over one graph (the sync and async
// cells of a sweep) share one build. A graph lives from the first block of
// its first configuration to the release of its last. For the cross
// products parse_campaign_spec emits, where n is outermost, the
// configurations of one graph are adjacent in the queue, so this is the
// in-flight bound above.
//
// Determinism contract: trial t of a configuration with root seed s always
// runs on rng::derive_stream(s, t), so per-trial results are bit-identical
// regardless of thread count, block size, or interleaving. Block partials
// are folded in slot order (one fold, sim/checkpoint.hpp's fold_slots,
// shared with resume and merge), so the full summary is additionally
// bit-identical across thread counts at a fixed block size; across block
// sizes, moments/quantiles agree to sketch tolerance, and reservoir
// *contents* (bottom-k priority sampling) are bit-identical always.
// Verified in tests/test_campaign.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/async.hpp"
#include "core/aux_process.hpp"
#include "core/batch_sync.hpp"
#include "core/protocol.hpp"
#include "core/sync.hpp"
#include "core/trial.hpp"
#include "dynamics/churn.hpp"
#include "graph/graph.hpp"
#include "json/json.hpp"
#include "stats/curves.hpp"
#include "stats/streaming.hpp"

namespace rumor::obs {
class Telemetry;  // obs/telemetry.hpp
}

namespace rumor::sim {

using json::Json;

/// Which protocol engine a configuration runs: core/trial.hpp's enum and
/// names (the run_trial dispatch), under the campaign's spelling.
using EngineKind = core::EngineKind;
using core::engine_name;

/// How a configuration picks its source vertex.
///
/// kFixed measures from CampaignConfig::source. kRace estimates the
/// *worst-case* source (the paper's "for any vertex u") with a two-stage
/// race — screen every candidate cheaply, refine the leaders — whose passes
/// are scheduled as trial blocks on the campaign's shared queue: racing
/// shares workers with ordinary cells, and the raced source is
/// bit-deterministic across thread counts because every per-candidate
/// partial merges in slot order.
enum class SourcePolicy : std::uint8_t { kFixed, kRace };

[[nodiscard]] constexpr const char* source_policy_name(SourcePolicy p) noexcept {
  return p == SourcePolicy::kRace ? "race" : "fixed";
}

/// Tuning for SourcePolicy::kRace. tests/support/race_oracle.hpp states the
/// race's rules as serial loops.
struct SourceRaceOptions {
  /// Trials per candidate in the screening pass.
  std::uint64_t screen_trials = 10;
  /// Candidates kept for the refinement pass.
  std::uint32_t finalists = 4;
  /// Trials per finalist in the refinement pass; 0 = the config's `trials`.
  std::uint64_t final_trials = 0;
  /// Screen at most this many candidate sources, stratified by degree
  /// (always including min- and max-degree nodes). 0 = screen all nodes.
  std::uint32_t max_candidates = 64;
};

/// A graph described by name, for campaigns built from a JSON spec. The
/// generator runs lazily on a worker thread when the first block over the
/// graph is scheduled, from an engine derived from `graph_seed` — never
/// from a shared generator stream — so construction is deterministic and
/// campaigns of thousands of graphs never hold more than the in-flight few.
struct GraphSpec {
  std::string family;        // generator name (or "file"), see build_graph()
  /// family == "file": path of a packed graph store (graph/graph_store.hpp)
  /// opened via mmap instead of generated; n/params are ignored (the store
  /// knows its own shape). Every config of a run naming the same path
  /// shares one mapping, freed with the last of them.
  std::string path;
  std::uint64_t n = 0;       // requested node count (families round as needed)
  double p = 0.0;            // erdos_renyi edge probability / watts_strogatz rewire
  std::uint32_t degree = 0;  // random_regular d / watts_strogatz k / pa edges_per_node
  double beta = 2.5;         // chung_lu exponent
  double average_degree = 8.0;  // chung_lu average degree
  std::uint64_t graph_seed = 0;  // 0 = derive from the config seed
};

/// Builds the graph a spec describes (always connected: random families are
/// reduced to their largest component or generated with connectivity
/// retries). Throws std::runtime_error on an unknown family or bad sizes.
/// `fallback_seed` seeds random families when spec.graph_seed == 0.
[[nodiscard]] graph::Graph build_graph(const GraphSpec& spec, std::uint64_t fallback_seed);

/// Spread-telemetry request for one configuration (the campaign face of
/// core::SpreadProbe + stats::CurveAccumulator). Off by default: with
/// enabled == false the trial path passes no probe and reports carry no
/// curve keys. Curves require a
/// fixed source (racing interleaves two trial populations whose curves
/// would not be comparable) and a sync/async engine (the aux
/// processes have no contact structure to classify); check_config rejects
/// the invalid combinations.
struct CurveSpec {
  bool enabled = false;
  /// Grid length: point k is round k (sync) or time
  /// k * time_bucket (async). Trials past the grid still count via the
  /// accumulator's absorbing-extension rule and max_len.
  std::uint32_t points = 64;
  /// Time-grid bucket width for async engines; ignored by round grids. A
  /// trial builds only the `points` grid values; one whose latest inform
  /// time lands past bucket 2^53 fails the campaign naming this key.
  double time_bucket = 1.0;
};

/// One (graph, protocol, trial-count) cell of a campaign.
struct CampaignConfig {
  std::string id;   // stable report id; auto-derived from the spec if empty
  GraphSpec graph;  // used when `prebuilt` is empty
  /// Experiments migrating onto the campaign path hand in graphs they
  /// already built; shared_ptr because several configs (e.g. sync and async
  /// over one topology) typically share a graph.
  std::shared_ptr<const graph::Graph> prebuilt;
  EngineKind engine = EngineKind::kSync;
  core::Mode mode = core::Mode::kPushPull;
  core::AsyncView view = core::AsyncView::kGlobalClock;
  core::AuxKind aux = core::AuxKind::kPpx;
  /// kBatchSync only: trials per lane batch (1..core::kMaxBatchLanes).
  /// Also this configuration's *block size* — the scheduler pins one trial
  /// block to one lane batch so batches stay slot-addressable for
  /// checkpoints and shards (see effective_block_size).
  std::uint32_t lanes = core::kMaxBatchLanes;
  /// Per-contact loss probability (the e11 fault extension); thins sync and
  /// async contacts identically. Ignored by the aux engine.
  double message_loss = 0.0;
  graph::NodeId source = 0;  // measured source under SourcePolicy::kFixed
  SourcePolicy source_policy = SourcePolicy::kFixed;
  SourceRaceOptions race;  // used when source_policy == kRace
  /// Temporal/weighted dynamics (dynamics/churn.hpp): a churn model applied
  /// between rounds and/or per-edge contact weights. A static spec (the
  /// default) leaves the engines' original paths — and their randomness
  /// consumption — untouched. Requires a sync or async engine; the async
  /// engine must use the global-clock view. Composes with every source
  /// policy, including kRace. dynamics.seed == 0 derives from `seed`.
  dynamics::DynamicsSpec dynamics;
  std::uint64_t trials = 200;
  std::uint64_t seed = 1;  // trial t runs on derive_stream(seed, t)
  /// T_q tail probability reported as hp_time; 0 means 1/trials (the
  /// harness's documented convention for large n).
  double hp_q = 0.0;
  /// Per-config reservoir override (0 = CampaignOptions default). Configs
  /// needing exact samples downstream (e.g. KS tests) set this >= trials.
  std::size_t reservoir_capacity = 0;
  /// Spread telemetry: per-trial informed-count curves and contact
  /// classification, reduced like the summary (per-block partials merged in
  /// slot order, so bit-identical across thread counts and resumable).
  CurveSpec curves;
};

/// A fixed-source configuration over a graph the caller owns: `prebuilt` is
/// a non-owning alias of `g`, which must outlive the run_campaign call. The
/// one setup behind the one-config wrappers (sim/harness.hpp's measure_*);
/// with source_policy = kRace it is a worst-source search over `g`.
[[nodiscard]] CampaignConfig borrowed_config(const graph::Graph& g, std::string id,
                                             EngineKind engine, core::Mode mode,
                                             std::uint64_t trials, std::uint64_t seed);

struct CampaignOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Trials per scheduled block. Small blocks interleave configurations
  /// more finely (better load balance); large blocks amortize scheduling.
  /// Also the checkpoint/shard granularity: snapshots address progress by
  /// (config, block slot), so resume and merge require the same block size.
  std::uint64_t block_size = 32;
  std::size_t sketch_capacity = 256;
  std::size_t reservoir_capacity = 512;

  // Checkpoint / shard / stop knobs (sim/checkpoint.hpp), honored by
  // run_campaign and run_campaign_resumable alike; only the latter resumes.
  /// This run's 1-based shard under `shard_count`-way block partitioning.
  std::uint32_t shard_index = 1;
  /// Total shards; 1 = unsharded (every block owned by this run).
  std::uint32_t shard_count = 1;
  /// When non-empty, write a crash-safe snapshot here: a periodic write is
  /// requested every `checkpoint_every` completed blocks (0 = none) and
  /// made by one background writer thread, so workers never wait on the
  /// disk. Requests that arrive while a write is in flight coalesce into
  /// one more write. A crash loses at most `checkpoint_every` blocks plus
  /// those finished during the in-flight write. The final write, once the
  /// pool joins, is synchronous and authoritative.
  std::string checkpoint_file;
  std::uint64_t checkpoint_every = 16;
  /// Testing/ops hook: stop scheduling after this many blocks completed by
  /// this process (0 = run to completion). The stopped campaign's outcome
  /// has complete == false; resume from the checkpoint to continue.
  std::uint64_t stop_after_blocks = 0;

  /// Observability sink (obs/telemetry.hpp), borrowed for the run; null (the
  /// default) disables all telemetry. Strictly observational: the scheduler
  /// only ever *feeds* it, so results are byte-identical with or without a
  /// sink attached (tested in tests/test_obs.cpp).
  /// Progress lines and the trace carry the campaign name the run is given
  /// ("campaign" for run_campaign, which has no name parameter).
  obs::Telemetry* telemetry = nullptr;
};

/// The trial-block size one configuration actually schedules under the
/// campaign-wide `block_size`. Batch-lane configurations override it with
/// their lane count: a block IS one lane batch (a deterministic function of
/// (seed, first trial index)), so slots keep addressing the same trials in
/// every scheduler, checkpoint loader, and snapshot merger — all three
/// compute slot counts through this one helper.
[[nodiscard]] inline std::uint64_t effective_block_size(const CampaignConfig& cfg,
                                                        std::uint64_t block_size) noexcept {
  if (cfg.engine == EngineKind::kBatchSync) return cfg.lanes;
  return block_size == 0 ? 1 : block_size;
}

/// One configuration's reduced result: identification plus the streaming
/// summary. No per-trial vectors.
///
/// Under SourcePolicy::kRace the summary is the refined measurement of the
/// *worst* source found; `source` names it and the best finalist is kept
/// alongside so source-sensitivity reports (e13) can quote the spread.
struct CampaignResult {
  std::string id;
  std::string graph_name;    // the built graph's own name
  std::uint64_t n = 0;       // actual node count of the built graph
  std::string engine;        // "sync" / "async" / "aux" / "batch_sync"
  std::string mode;          // "push" / "pull" / "push-pull"
  std::uint32_t lanes = 0;   // batch_sync: lane-batch width (0 otherwise)
  std::uint64_t trials = 0;  // refine trials per finalist under kRace
  std::uint64_t seed = 0;
  double hp_q = 0.0;         // resolved (never 0)
  SourcePolicy source_policy = SourcePolicy::kFixed;
  graph::NodeId source = 0;       // fixed source, or the raced worst source
  graph::NodeId best_source = 0;  // kRace: best finalist
  double best_mean = 0.0;         // kRace: its refined mean
  dynamics::DynamicsSpec dynamics;  // resolved copy (seed never 0 when active)
  stats::StreamingSummary summary;
  /// Spread telemetry (CurveSpec; only meaningful when has_curves). The
  /// accumulator's grid is rounds for the sync engine and
  /// time buckets of curves_spec.time_bucket for async.
  bool has_curves = false;
  CurveSpec curves_spec;
  stats::CurveAccumulator curves;
  stats::ContactTotals contacts;
};

/// Runs every configuration's trials over one shared block queue. Results
/// are ordered like `configs`. Race configurations enqueue their screen and
/// refine passes onto the same queue as they become ready, so worst-source
/// searches interleave with ordinary cells instead of serializing behind
/// them. Throws the first trial/build exception after draining the pool.
/// This is run_campaign_resumable (sim/checkpoint.hpp) under the name
/// "campaign", without resume or the snapshot document: a checkpoint file,
/// a shard and a stop budget in `options` act as they do there.
[[nodiscard]] std::vector<CampaignResult> run_campaign(const std::vector<CampaignConfig>& configs,
                                                       const CampaignOptions& options = {});

/// The range and cross-field rules every configuration must satisfy: the
/// engine against dynamics, races, and curves; batch lanes; race tuning;
/// churn, weight, loss, hp_q, and generator parameter ranges. Returns "" or
/// the first rule broken. The one copy of these rules: parse_campaign_spec
/// applies it to `defaults`, to each entry before its graph object, and to
/// every expanded cell (a value is checked where it is written);
/// run_campaign to every configuration it is handed; and rumor_bench
/// --curves after turning curves on.
[[nodiscard]] std::string check_config(const CampaignConfig& cfg);

/// The identification/metadata half of a CampaignResult, exactly as
/// run_campaign initializes it before any trial runs (id, engine, mode,
/// seed, resolved trials/hp_q/dynamics). Shared with the checkpoint/merge
/// layer (sim/checkpoint.hpp) so merged and resumed reports are built from
/// skeletons identical to the scheduler's.
[[nodiscard]] CampaignResult campaign_result_skeleton(const CampaignConfig& cfg,
                                                      std::size_t index);

/// Parses a campaign spec document into configurations. Grammar (all
/// `defaults` keys optional, every config key overridable per entry):
///
///   { "name": "sweep",                     // optional campaign id prefix
///     "defaults": { "trials": 200, "seed": 1, "engine": "sync",
///                   "mode": "push-pull", "source": 0, "hp_q": 0 },
///     "configs": [
///       { "graph": "star", "n": [256, 1024, 4096] },   // arrays expand
///       { "graph": "random_regular", "n": 512, "degree": 6,
///         "engine": ["sync", "async"], "graph_seed": 42 },
///       { "graph": {"kind": "file", "path": "web.rgs"} },  // packed store
///       { "graph": {"kind": "chung_lu", "beta": 2.1,       // object form
///                   "average_degree": 6}, "n": 10000 },
///       { "graph": "star", "n": 512, "source": "race",  // worst-source race
///         "race": { "screen_trials": 10, "finalists": 4 } },
///       { "graph": "hypercube", "n": 1024,               // churn + weights
///         "dynamics": { "churn": "markov", "birth": 0.05, "death": 0.05,
///                       "weights": "heavy_tailed", "weight_alpha": 1.5 } },
///       { "graph": "hypercube", "n": 1024,               // spread telemetry
///         "curves": { "points": 96, "time_bucket": 0.25 } },
///       { "graph": "hypercube", "n": 4096,               // batch lanes
///         "engine": { "kind": "batch_sync", "lanes": 64 } } ] }
///
/// "n", "engine", and "mode" accept scalars or arrays; array-valued keys
/// expand to their cross product, so a compact spec can describe thousands
/// of configurations. "graph" is a family name, or an object
/// {"kind": <family>, ...family params...} — where kind "file" instead
/// takes "path" (a packed graph store; "n" and generator params are then
/// rejected, the store knows its own shape). "engine" entries are engine
/// names, or the object {"kind": "batch_sync", "lanes": 1..64} for the
/// lane-parallel sync engine (distributional contract, docs/ENGINES.md;
/// incompatible with "race", "dynamics", and "curves"). "source" is a node
/// id (fixed policy) or the string
/// "race" (worst-source racing, tuned by the nested "race" block — or the
/// equivalent flat keys "screen_trials" / "finalists" / "final_trials" /
/// "max_candidates"). "dynamics" configures churn overlays and weighted
/// contact rates. A "curves" block ({"points", "time_bucket"}) enables
/// spread telemetry — informed-count curves, phase decomposition, and
/// contact accounting under the report's stats.curves — and requires a
/// sync/async engine with a fixed source. Unknown keys, and
/// integers that are fractional, negative, or too wide for their field, are
/// rejected with an error naming the key; every expanded cell must then pass
/// check_config. See bench/README.md for the full reference.
struct CampaignSpec {
  std::string name;  // defaults to "campaign"
  std::vector<CampaignConfig> configs;
  std::string error;  // non-empty = parse failure (other fields unspecified)
};

[[nodiscard]] CampaignSpec parse_campaign_spec(const Json& doc);

/// Renders one result as a report in the established experiment schema:
/// { "experiment": "<campaign>/<id>", "params": {...}, "rows": [one row of
/// summary statistics], "stats": {...}, "notes": ... }.
[[nodiscard]] Json campaign_report(const CampaignResult& result, const std::string& campaign_name);

/// campaign_report for every result, rendered on `threads` threads (0 =
/// hardware concurrency). `emit(i, report)` is called once per result, on
/// the thread that rendered report i, so callers can decorate and dump the
/// reports on the render threads too; calls for different i run
/// concurrently. Each report is a pure function of its result, so what
/// each call sees is the serial loop's report at any thread count.
void render_campaign_reports(const std::vector<CampaignResult>& results,
                             const std::string& campaign_name, unsigned threads,
                             const std::function<void(std::size_t, Json&)>& emit);

/// The depth at which each of `count` reports is dumped (Json::dump_to with
/// indent 2) for report_json_parts: 0 for one report, 1 for the others.
[[nodiscard]] int report_depth(std::size_t count);

/// The `--json` text of a campaign's reports, from each report's text
/// dumped at report_depth: one report prints as its object, any other
/// count as the array of them, both exactly as Json::dump(2) lays them out,
/// plus a newline. Returned as consecutive parts viewing `fragments` and
/// string literals, to be written in order without concatenating them.
[[nodiscard]] std::vector<std::string_view> report_json_parts(
    const std::vector<std::string>& fragments);

}  // namespace rumor::sim
