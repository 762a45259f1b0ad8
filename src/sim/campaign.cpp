#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/trial_lanes.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "obs/build_info.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/harness.hpp"

namespace rumor::sim {

using graph::Graph;

// --- Graph construction from a spec -----------------------------------------

namespace {

/// The spec as build_graph reads it: the family's defaults filled in, every
/// field the family does not read zeroed, and the graph seed resolved for
/// the five random families only. Equal resolved specs build equal graphs,
/// so the campaign's graph table keys by it.
GraphSpec resolved_graph_spec(const GraphSpec& spec, std::uint64_t fallback_seed) {
  GraphSpec r;
  r.family = spec.family;
  r.beta = 0.0;
  r.average_degree = 0.0;
  if (spec.family == "file") {
    r.path = spec.path;
    return r;
  }
  r.n = spec.n;
  const std::string& f = spec.family;
  if (f == "erdos_renyi") {
    // n < 2 keeps the key finite; build_graph then refuses that n.
    const auto n = static_cast<double>(spec.n);
    r.p = spec.p > 0.0 || spec.n < 2 ? spec.p : 3.0 * std::log(n) / n;
  } else if (f == "random_regular") {
    r.degree = spec.degree != 0 ? spec.degree : 6;
  } else if (f == "preferential_attachment") {
    r.degree = spec.degree != 0 ? spec.degree : 3;
  } else if (f == "watts_strogatz") {
    r.degree = spec.degree != 0 ? spec.degree : 4;
    if (r.degree % 2 != 0) ++r.degree;  // the lattice needs an even k
    r.p = spec.p > 0.0 ? spec.p : 0.1;
  } else if (f == "chung_lu") {
    r.beta = spec.beta;
    r.average_degree = spec.average_degree;
  } else {
    return r;  // the deterministic families read n alone
  }
  r.graph_seed = spec.graph_seed != 0 ? spec.graph_seed : fallback_seed;
  return r;
}

}  // namespace

Graph build_graph(const GraphSpec& requested, std::uint64_t fallback_seed) {
  const GraphSpec spec = resolved_graph_spec(requested, fallback_seed);
  if (spec.family == "file") {
    // A packed store: mmap it. Its shape is whatever was packed — n and the
    // generator params play no role (the parser rejects them up front).
    if (spec.path.empty()) {
      throw std::runtime_error("build_graph: graph kind 'file' needs a non-empty path");
    }
    return graph::open_graph_store(spec.path);
  }
  if (spec.n < 2 || spec.n > std::numeric_limits<graph::NodeId>::max()) {
    throw std::runtime_error("build_graph: '" + spec.family + "' needs 2 <= n <= 2^32-1");
  }
  const auto n = static_cast<graph::NodeId>(spec.n);
  // A dedicated stream tag keeps graph randomness disjoint from the trial
  // streams derive_stream(seed, 0..trials) of the same configuration.
  rng::Engine eng = rng::derive_stream(spec.graph_seed, 0x67726170685f5f5fULL);

  const std::string& f = spec.family;
  if (f == "complete") return graph::complete(n);
  if (f == "star") return graph::star(n);
  if (f == "double_star") return graph::double_star(n);
  if (f == "path") return graph::path(n);
  if (f == "cycle") return graph::cycle(n);
  if (f == "wheel") return graph::wheel(n);
  if (f == "tree" || f == "complete_binary_tree") return graph::complete_binary_tree(n);
  if (f == "complete_bipartite") return graph::complete_bipartite(n / 2, n - n / 2);
  if (f == "torus") {
    const auto side = std::max<graph::NodeId>(
        2, static_cast<graph::NodeId>(std::llround(std::sqrt(static_cast<double>(n)))));
    return graph::torus(side);
  }
  if (f == "torus3d") {
    const auto side = std::max<graph::NodeId>(
        2, static_cast<graph::NodeId>(std::llround(std::cbrt(static_cast<double>(n)))));
    return graph::torus3d(side);
  }
  if (f == "hypercube") {
    const auto dim = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(std::log2(static_cast<double>(n)))));
    return graph::hypercube(dim);
  }
  if (f == "erdos_renyi") return graph::largest_component(graph::erdos_renyi(n, spec.p, eng));
  if (f == "random_regular") {
    // The configuration model needs n*d even; round the odd case up so
    // size sweeps over arbitrary n stay valid (the actual n is reported).
    const graph::NodeId nn = (std::uint64_t{n} * spec.degree) % 2 == 0 ? n : n + 1;
    return graph::random_regular(nn, spec.degree, eng);
  }
  if (f == "chung_lu") {
    graph::ChungLuOptions options;
    options.beta = spec.beta;
    options.average_degree = spec.average_degree;
    return graph::largest_component(graph::chung_lu(n, options, eng));
  }
  if (f == "preferential_attachment") {
    return graph::preferential_attachment(n, spec.degree, eng);
  }
  if (f == "watts_strogatz") {
    return graph::largest_component(graph::watts_strogatz(n, spec.degree, spec.p, eng));
  }
  // The structural "gap" families: each needs two clique nodes or hubs.
  if ((f == "lollipop" && n < 4) || (f == "barbell" && n < 6) ||
      (f == "chain_of_stars" && n < 3)) {
    throw std::runtime_error("build_graph: '" + f + "' needs a larger n");
  }
  if (f == "lollipop") return graph::lollipop(n / 2, n - n / 2);
  if (f == "barbell") return graph::barbell(n / 3, n - 2 * (n / 3));
  if (f == "chain_of_stars") {
    const auto k = static_cast<graph::NodeId>(std::lround(std::sqrt(static_cast<double>(n))));
    return graph::chain_of_stars(k, k);
  }
  if (f == "bundle_chain") {
    // e4's shape: width = len^2 / 4, so n is about len^3 / 4.
    const auto len =
        static_cast<graph::NodeId>(std::lround(std::cbrt(4.0 * static_cast<double>(n))));
    return graph::bundle_chain(len, len * len / 4);
  }
  throw std::runtime_error("build_graph: unknown graph family '" + f + "'");
}

// --- The shared-queue scheduler ----------------------------------------------

namespace {

/// The configuration's dynamics spec with its seed resolved (0 = derive
/// from the configuration seed) — what views and reports actually use.
dynamics::DynamicsSpec resolved_dynamics(const CampaignConfig& cfg) noexcept {
  dynamics::DynamicsSpec spec = cfg.dynamics;
  if (spec.seed == 0) spec.seed = cfg.seed;
  return spec;
}

/// Folds one trial's probe counters plus its tick count (rounds for round
/// grids, events for time grids) and final informed count into the
/// configuration's exact contact totals. The tick definition mirrors what
/// run_one adds to WorkerMetrics, so the obs registry cross-check in
/// rumor_bench can compare the two sums exactly.
void fold_probe(stats::ContactTotals& totals, const core::SpreadProbe& probe,
                std::uint64_t ticks, std::uint64_t informed) noexcept {
  totals.contacts += probe.contacts;
  totals.useful_push += probe.useful_push;
  totals.useful_pull += probe.useful_pull;
  totals.wasted_push += probe.wasted_push;
  totals.wasted_pull += probe.wasted_pull;
  totals.empty_contacts += probe.empty_contacts;
  totals.ticks += ticks;
  totals.informed_total += informed;
}

/// The per-trial knobs every campaign trial of `cfg` shares; run_one adds
/// the dynamics view and the probe a trial may need.
core::TrialOptions trial_options(const CampaignConfig& cfg) {
  core::TrialOptions options;
  options.mode = cfg.mode;
  options.message_loss = cfg.message_loss;
  return options;
}

core::TrialExtras trial_extras(const CampaignConfig& cfg) {
  core::TrialExtras extras;
  extras.view = cfg.view;
  extras.aux = cfg.aux;
  return extras;
}

/// Fails the campaign on a capped trial, else adds the trial's ticks to
/// `metrics`: events for the async engine, rounds for the others.
void account_trial(const CampaignConfig& cfg, const core::TrialOutcome& outcome,
                   obs::WorkerMetrics* metrics) {
  if (!outcome.completed) {
    throw std::runtime_error(std::string("campaign: engine '") + engine_name(cfg.engine) +
                             "' hit its tick cap (disconnected or churned-out graph?)");
  }
  if (metrics != nullptr) {
    if (cfg.engine == EngineKind::kAsync) {
      metrics->async_events += outcome.ticks;
    } else {
      metrics->sync_rounds += outcome.ticks;
    }
  }
}

/// One execution of the configured protocol from `source`. The trial engine is
/// derive_stream(stream_seed, trial); a non-static dynamics spec adds a
/// per-trial overlay view whose churn streams derive from the same
/// (stream_seed, trial) identity, so dynamic configurations keep the
/// bit-determinism contract across thread counts and block sizes.
///
/// Spread telemetry: when `curves` is non-null the trial runs with a
/// core::SpreadProbe attached (never changing its randomness or result),
/// its informed-count curve on the configuration's native grid — per round
/// for sync, per cfg.curves.time_bucket for async — is added to `curves`,
/// and the probe counters fold into `totals`.
double run_one(const CampaignConfig& cfg, const Graph& g,
               const dynamics::NeighborAliasTable* shared_weighted,
               const std::vector<graph::Edge>* shared_edges, graph::NodeId source,
               std::uint64_t stream_seed, std::uint64_t trial, obs::WorkerMetrics* metrics,
               stats::CurveAccumulator* curves, stats::ContactTotals* totals) {
  rng::Engine eng = rng::derive_stream(stream_seed, trial);
  std::optional<dynamics::DynamicGraphView> view;
  core::TrialOptions options = trial_options(cfg);
  if (!cfg.dynamics.is_static()) {
    view.emplace(g, resolved_dynamics(cfg), shared_weighted, stream_seed, trial, shared_edges);
    options.dynamics = &*view;
  }
  core::SpreadProbe probe;
  if (curves != nullptr) {
    if (cfg.engine == EngineKind::kAux || cfg.engine == EngineKind::kBatchSync) {
      throw std::runtime_error(std::string("campaign: curves are not supported for engine '") +
                               engine_name(cfg.engine) + "'");
    }
    options.record_history = true;  // round grids; the async engine reports times regardless
    options.probe = &probe;
  }
  const auto outcome = core::run_trial(cfg.engine, g, source, eng, options, trial_extras(cfg));
  account_trial(cfg, outcome, metrics);
  if (curves != nullptr) {
    if (cfg.engine == EngineKind::kAsync) {
      const auto time_curve = core::informed_time_curve(
          outcome.informed_time, cfg.curves.time_bucket, cfg.curves.points);
      if (!time_curve) {
        throw std::runtime_error("campaign: configuration '" + cfg.id +
                                 "': curves: key 'time_bucket' " +
                                 Json(cfg.curves.time_bucket).dump() +
                                 " puts an inform time past bucket 2^53; use a wider bucket");
      }
      curves->add(std::vector<double>(time_curve->curve.begin(), time_curve->curve.end()),
                  time_curve->length);
    } else {
      curves->add(std::vector<double>(outcome.informed_count_history.begin(),
                                      outcome.informed_count_history.end()));
    }
    fold_probe(*totals, probe, outcome.ticks, g.num_nodes());
  }
  return outcome.value;
}

/// Runs trials [begin, end) of `cfg` from `source` — trial t on
/// derive_stream(stream_seed, t) — and hands each value to add(value, t)
/// in trial order. A block of at least core::kMinLaneTrials trials of a
/// static, curve-free cell the trial lanes accept (core/trial_lanes.hpp)
/// runs on the lanes, whose per-trial results are bit-identical to
/// run_one's; every other block loops over run_one, passing `curves` and
/// `totals` through.
template <class Add>
void run_block_trials(const CampaignConfig& cfg, const Graph& g,
                      const dynamics::NeighborAliasTable* shared_weighted,
                      const std::vector<graph::Edge>* shared_edges, graph::NodeId source,
                      std::uint64_t stream_seed, std::uint64_t begin, std::uint64_t end,
                      obs::WorkerMetrics* metrics, stats::CurveAccumulator* curves,
                      stats::ContactTotals* totals, Add&& add) {
  const core::TrialOptions options = trial_options(cfg);
  const core::TrialExtras extras = trial_extras(cfg);
  if (curves == nullptr && cfg.dynamics.is_static() && end - begin >= core::kMinLaneTrials &&
      core::lanes_eligible(cfg.engine, options, extras)) {
    std::vector<rng::Engine> engines;
    engines.reserve(end - begin);
    for (std::uint64_t t = begin; t < end; ++t) {
      engines.push_back(rng::derive_stream(stream_seed, t));
    }
    const auto outcomes = core::run_trial_lanes(cfg.engine, g, source, engines, options, extras);
    for (std::uint64_t t = begin; t < end; ++t) {
      account_trial(cfg, outcomes[t - begin], metrics);
      add(outcomes[t - begin].value, t);
    }
    if (metrics != nullptr) metrics->lane_trials += end - begin;
    return;
  }
  for (std::uint64_t t = begin; t < end; ++t) {
    add(run_one(cfg, g, shared_weighted, shared_edges, source, stream_seed, t, metrics, curves,
                totals),
        t);
  }
}

/// The per-source stream family of the two-stage race: candidate u's
/// screening trial t runs on derive_stream(seed + kSourceStride * u, t) and
/// its refinement trial on derive_stream(seed + 1 + kSourceStride * u, t).
constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;

/// What a scheduled block does. Fixed-source configurations only ever see
/// kTrials blocks. A race configuration starts as a single kPlan block
/// (build the graph, pick candidates, enqueue the screen pass); the last
/// kScreen block enqueues the refine pass; the last kRefine block picks the
/// worst source and publishes the result.
enum class BlockKind : std::uint8_t { kTrials, kPlan, kScreen, kRefine };

/// Trace span names per block kind (string literals: TraceSpan stores the
/// pointer) and the short phase labels the progress heartbeat shows.
struct BlockNames {
  const char* span;
  const char* phase;
};
constexpr BlockNames kBlockNames[] = {{"block:trials", "trials"},
                                      {"block:plan", "plan"},
                                      {"block:screen", "screen"},
                                      {"block:refine", "refine"}};

constexpr const BlockNames& block_names(BlockKind k) noexcept {
  return kBlockNames[static_cast<std::size_t>(k)];
}

struct Block {
  std::size_t config = 0;   // index into `configs`
  BlockKind kind = BlockKind::kTrials;
  std::uint32_t entrant = 0;  // index into its pass's entrants
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::size_t slot = 0;     // block ordinal within its (config, pass, entrant)
};

/// Degree-stratified candidate list: sort nodes by (degree, node id) and
/// take every k-th, guaranteeing the extremes are included. Spreading-time
/// extremes correlate strongly with degree (peripheral low-degree nodes are
/// slow sources), so stratification loses little versus screening
/// everything.
std::vector<graph::NodeId> candidate_sources(const Graph& g, std::uint32_t max_candidates) {
  const graph::NodeId n = g.num_nodes();
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  if (max_candidates == 0 || n <= max_candidates) return order;
  // The id tie-break fixes the order, so the candidates do not depend on
  // the standard library's sort.
  std::sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    return std::pair(g.degree(a), a) < std::pair(g.degree(b), b);
  });
  // A single-candidate race keeps the min-degree node (the best worst-source
  // guess); it also keeps the stride below finite.
  if (max_candidates == 1) return {order.front()};
  std::vector<graph::NodeId> picked;
  picked.reserve(max_candidates);
  const double stride = static_cast<double>(n - 1) / (max_candidates - 1);
  for (std::uint32_t i = 0; i < max_candidates; ++i) {
    picked.push_back(order[static_cast<std::size_t>(i * stride)]);
  }
  return picked;
}

/// The shared work queue. Unlike a fixed block list with an atomic cursor,
/// race configurations *append* blocks while the campaign runs (screen
/// after plan, refine after screen), so the queue tracks how many pushed
/// blocks have not finished yet: workers exit when the queue is empty AND
/// nothing is in flight (an in-flight block may still push successors).
class BlockQueue {
 public:
  /// `tel` may be null (telemetry disabled). The queue's own mutex
  /// serializes the telemetry's queue-side hooks (scheduling counter and
  /// depth histogram) — no extra synchronization inside the telemetry.
  explicit BlockQueue(obs::Telemetry* tel) noexcept : tel_(tel) {}

  void push(std::vector<Block> blocks) {
    {
      const std::scoped_lock lock(mutex_);
      outstanding_ += blocks.size();
      for (Block& b : blocks) queue_.push_back(b);
      if (tel_ != nullptr) tel_->on_blocks_scheduled(blocks.size());
    }
    cv_.notify_all();
  }

  /// Blocks until work is available or the campaign is finished/aborted.
  /// Returns false when the worker should exit.
  bool pop(Block& out) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return aborted_ || !queue_.empty() || outstanding_ == 0; });
    if (aborted_ || queue_.empty()) return false;
    out = queue_.front();
    queue_.pop_front();
    if (tel_ != nullptr) tel_->sample_queue_depth(queue_.size());
    return true;
  }

  /// Marks one popped block as finished (after any successor pushes).
  void finish_one() {
    bool drained = false;
    {
      const std::scoped_lock lock(mutex_);
      drained = --outstanding_ == 0;
    }
    if (drained) cv_.notify_all();
  }

  void abort() {
    {
      const std::scoped_lock lock(mutex_);
      aborted_ = true;
      outstanding_ -= queue_.size();
      queue_.clear();
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Block> queue_;
  std::size_t outstanding_ = 0;  // queued + currently processing
  bool aborted_ = false;
  obs::Telemetry* tel_;  // borrowed; hooks called under mutex_
};

/// Trials per finalist in the race's refine pass.
std::uint64_t refine_trials(const CampaignConfig& cfg) noexcept {
  return cfg.race.final_trials != 0 ? cfg.race.final_trials : cfg.trials;
}

/// One pass of a configuration: `trials` trials per entrant, split into
/// (entrant, slot) blocks. Each block's partial lands in its slot, and the
/// worker that lands the pass's last block folds every entrant's slots in
/// slot order and hands off — a fixed-order reduction tree, so the fold
/// does not depend on completion order or thread count. The fixed-source
/// trials pass has one entrant (the configured source), the race's screen
/// pass one per candidate and its refine pass one per finalist.
template <class Partial>
struct Pass {
  std::vector<graph::NodeId> entrants;
  std::vector<std::vector<Partial>> slots;  // [entrant][slot]
  std::atomic<std::uint64_t> left{0};       // blocks still to land

  /// Sizes the slot vectors and returns every block of the pass, entrant
  /// by entrant in slot order; the countdown starts at their number.
  std::vector<Block> plan(std::size_t config, BlockKind kind, std::uint64_t trials,
                          std::uint64_t block_size) {
    const std::size_t count = slot_count(trials, block_size);
    slots.assign(entrants.size(), {});
    std::vector<Block> blocks;
    for (std::uint32_t i = 0; i < entrants.size(); ++i) {
      slots[i].resize(count);
      for (std::size_t s = 0; s < count; ++s) {
        const std::uint64_t begin = s * block_size;
        blocks.push_back(Block{config, kind, i, begin, std::min(begin + block_size, trials), s});
      }
    }
    left.store(blocks.size(), std::memory_order_relaxed);
    return blocks;
  }

  /// Restores the partials a snapshot recorded (`recorded` is keyed like
  /// its entry: by slot, or by (entrant, slot)), appends the `planned`
  /// blocks still to run to `out` and restarts the countdown at their
  /// number, which it returns. When nothing is left of a pass this run
  /// folds, the snapshot fell between the last block and its hand-off: the
  /// last block runs again to re-trigger the fold (recording is idempotent
  /// and re-running a block is bit-neutral).
  template <class Recorded, class Restore>
  std::size_t resume(const std::vector<Block>& planned, bool folds_here, const Recorded& recorded,
                     Restore&& restore, std::vector<Block>& out) {
    using Key = typename Recorded::key_type;
    const std::size_t before = out.size();
    for (const Block& b : planned) {
      Key key{};
      if constexpr (std::is_same_v<Key, std::size_t>) {
        key = b.slot;
      } else {
        key = Key{b.entrant, b.slot};
      }
      if (const auto it = recorded.find(key); it != recorded.end()) {
        slots[b.entrant][b.slot] = restore(it->second);
      } else {
        out.push_back(b);
      }
    }
    if (out.size() == before && folds_here) out.push_back(planned.back());
    left.store(out.size() - before, std::memory_order_relaxed);
    return out.size() - before;
  }

  /// Lands a finished block's partial in its slot and hands it to
  /// `record`; true on the worker that landed the pass's last block.
  template <class Record>
  bool land(const Block& block, Partial partial, Record&& record) {
    Partial& slot = slots[block.entrant][block.slot];
    slot = std::move(partial);
    record(slot);
    return left.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Entrant i's slots folded in slot order (consumes them).
  Partial fold(std::size_t i) { return fold_slots(slots[i]); }

  void release() {
    slots.clear();
    slots.shrink_to_fit();
    entrants.clear();
    entrants.shrink_to_fit();
  }
};

/// What makes two configurations run on one graph: the prebuilt object, or
/// the spec as build_graph reads it.
using GraphKey = std::tuple<const Graph*, std::string, std::string, std::uint64_t, double,
                            std::uint32_t, double, double, std::uint64_t>;

GraphKey graph_key(const CampaignConfig& cfg) {
  if (cfg.prebuilt != nullptr) return {cfg.prebuilt.get(), {}, {}, 0, 0.0, 0, 0.0, 0.0, 0};
  const GraphSpec g = resolved_graph_spec(cfg.graph, cfg.seed);
  return {nullptr, g.family, g.path, g.n, g.p, g.degree, g.beta, g.average_degree, g.graph_seed};
}

/// One distinct graph of a run: built or mapped once, on the first block
/// of its first configuration, and freed when the last configuration
/// holding it is released.
struct GraphEntry {
  std::once_flag built;
  std::shared_ptr<const Graph> graph;
  std::atomic<std::size_t> holders{0};  // configurations with blocks here, not yet released
};

/// Mutable per-configuration scheduling state.
struct ConfigState {
  std::once_flag build_once;
  std::size_t graph_entry = 0;  // its graph's index in the run's graph table
  /// Static-weights fast path: one alias sampler per configuration, built
  /// alongside the graph and shared (read-only) by every trial. Null when
  /// the config is unweighted or churned (churn overlays build their own
  /// per-epoch tables).
  std::shared_ptr<const dynamics::NeighborAliasTable> weighted;
  /// Churn configs: the base edge list, extracted once per configuration
  /// and shared read-only by every trial's overlay view.
  std::shared_ptr<const std::vector<graph::Edge>> edges;
  Pass<TrialPartial> trials;           // fixed source: one entrant, cfg.source
  Pass<stats::RunningMoments> screen;  // race: one entrant per candidate
  Pass<TrialPartial> refine;           // race: one entrant per finalist
};

}  // namespace

CampaignConfig borrowed_config(const Graph& g, std::string id, EngineKind engine,
                               core::Mode mode, std::uint64_t trials, std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.id = std::move(id);
  cfg.prebuilt = std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g);
  cfg.engine = engine;
  cfg.mode = mode;
  cfg.trials = trials;
  cfg.seed = seed;
  return cfg;
}

CampaignResult campaign_result_skeleton(const CampaignConfig& cfg, std::size_t index) {
  CampaignResult r;
  r.id = resolved_config_id(cfg, index);
  if (cfg.trials == 0) {
    throw std::runtime_error("campaign: configuration '" + r.id + "' has trials == 0");
  }
  r.engine = engine_name(cfg.engine);
  r.mode = core::mode_name(cfg.mode);
  if (cfg.engine == EngineKind::kBatchSync) r.lanes = cfg.lanes;
  r.seed = cfg.seed;
  r.source = cfg.source;
  r.source_policy = cfg.source_policy;
  r.dynamics = resolved_dynamics(cfg);
  r.trials = cfg.source_policy == SourcePolicy::kRace ? refine_trials(cfg) : cfg.trials;
  r.hp_q = cfg.hp_q > 0.0 ? cfg.hp_q : 1.0 / static_cast<double>(r.trials);
  r.has_curves = cfg.curves.enabled;
  r.curves_spec = cfg.curves;
  return r;
}

namespace {

/// One scheduler run: every configuration's state and result, the shared
/// queue, and one handler per block kind. Handlers land partials in their
/// slots, and every cross-pass hand-off happens on the worker that lands a
/// pass's last block — a deterministic reduction no matter which threads
/// ran which blocks.
class CampaignRun {
 public:
  /// `tel` may be null.
  CampaignRun(const std::vector<CampaignConfig>& configs, const CampaignOptions& options,
              CampaignRecorder& recorder, obs::Telemetry* tel)
      : configs_(configs),
        options_(options),
        block_size_(std::max<std::uint64_t>(options.block_size, 1)),
        shard_count_(std::max<std::uint32_t>(options.shard_count, 1)),
        shard_(options.shard_index - 1),
        recorder_(recorder),
        states_(configs.size()),
        finalize_here_(configs.size(), 1),
        queue_(tel) {
    results_.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      results_.push_back(campaign_result_skeleton(configs[c], c));
      // Checked here, not on a worker thread that would race to report it;
      // the spec parser applies the same rules.
      if (const std::string error = check_config(configs[c]); !error.empty()) {
        throw std::runtime_error("campaign: configuration '" + results_[c].id + "': " + error);
      }
    }
    std::map<GraphKey, std::size_t> entries;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto [it, added] = entries.emplace(graph_key(configs[c]), graphs_.size());
      if (added) graphs_.emplace_back();
      states_[c].graph_entry = it->second;
    }
  }

  /// Sets configuration `c` up from its restored progress `rest`: a done
  /// result, or the pass state and first blocks (appended to `initial`).
  /// A configuration given blocks holds its graph until it is released.
  /// Returns an upper bound on the blocks it can still schedule, for the
  /// worker-count heuristic (race passes expand lazily).
  std::size_t setup(std::size_t c, CampaignRecorder::Entry& rest, std::vector<Block>& initial) {
    const std::size_t before = initial.size();
    const std::size_t bound = plan_config(c, rest, initial);
    if (initial.size() > before) graphs_[states_[c].graph_entry].holders += 1;
    return bound;
  }

  /// Runs one block: builds its configuration's graph on first use, then
  /// hands the block to its kind's handler.
  void process(const Block& block, obs::WorkerSink* sink);

  BlockQueue& queue() noexcept { return queue_; }
  std::vector<CampaignResult>& results() noexcept { return results_; }

 private:
  std::size_t plan_config(std::size_t c, CampaignRecorder::Entry& rest,
                          std::vector<Block>& initial);
  void build_graph_once(std::size_t c, obs::WorkerSink* sink);
  void on_trials(const Block& block, const Graph& g, obs::WorkerSink* sink);
  void on_plan(const Block& block, const Graph& g);
  void on_screen(const Block& block, const Graph& g, obs::WorkerSink* sink);
  void on_refine(const Block& block, const Graph& g, obs::WorkerSink* sink);
  /// Ends a configuration's fold: its graph identity, the merge span since
  /// `merge_begin`, and its done entry.
  void publish(std::size_t c, const Graph& g, obs::WorkerSink* sink, std::uint64_t merge_begin);
  /// Frees a configuration whose last owned block has landed: every pass's
  /// state, and its graph if no other configuration holds it. From here on
  /// it occupies only its result.
  void release(std::size_t c, obs::WorkerSink* sink);

  const std::vector<CampaignConfig>& configs_;
  const CampaignOptions& options_;
  const std::uint64_t block_size_;
  const std::uint32_t shard_count_;
  const std::uint32_t shard_;  // 0-based
  CampaignRecorder& recorder_;
  std::vector<ConfigState> states_;
  std::vector<CampaignResult> results_;
  // finalize_here_[c]: this run folds the configuration's partials into its
  // final result (it owns every block). A sharded run leaves foreign or
  // split configurations to merge_campaign_snapshots.
  std::vector<char> finalize_here_;
  BlockQueue queue_;
  // The run's graph table: one entry per distinct graph_key, so the sync
  // and async cells of one graph, or every cell naming one store, share a
  // single build or mapping (the OS page cache extends a store's sharing
  // across --shard processes).
  std::deque<GraphEntry> graphs_;
};

std::size_t CampaignRun::plan_config(std::size_t c, CampaignRecorder::Entry& rest,
                                     std::vector<Block>& initial) {
  using Phase = CampaignRecorder::Entry::Phase;
  const CampaignConfig& cfg = configs_[c];
  ConfigState& st = states_[c];
  CampaignResult& r = results_[c];
  const std::size_t sketch = options_.sketch_capacity;
  const std::size_t reservoir = options_.reservoir_capacity;
  if (cfg.source_policy == SourcePolicy::kRace) {
    const std::size_t candidates =
        cfg.race.max_candidates != 0
            ? cfg.race.max_candidates
            : (cfg.prebuilt != nullptr ? cfg.prebuilt->num_nodes() : cfg.graph.n);
    const std::size_t bound = 1 + candidates * (cfg.race.screen_trials / block_size_ + 1) +
                              cfg.race.finalists * (refine_trials(cfg) / block_size_ + 1);
    // Races are owned wholesale by one shard, so the screen/refine
    // successors of the plan block always stay with their owner.
    finalize_here_[c] =
        shard_of_block(r.id, 0, /*whole_config=*/true, shard_count_) == shard_ ? 1 : 0;
    if (finalize_here_[c] == 0) return bound;
    switch (rest.phase) {
      case Phase::kPending:
      case Phase::kTrials:  // load() never reports kTrials for a race
        initial.push_back(Block{c, BlockKind::kPlan, 0, 0, 0, 0});
        break;
      case Phase::kScreen:
        st.screen.entrants = std::move(rest.candidates);
        st.screen.resume(st.screen.plan(c, BlockKind::kScreen, cfg.race.screen_trials, block_size_),
                         true, rest.screen,
                         [](const stats::RunningMoments::State& state) {
                           stats::RunningMoments m;
                           m.restore(state);
                           return m;
                         },
                         initial);
        break;
      case Phase::kRefine:
        st.refine.entrants = std::move(rest.finalists);
        st.refine.resume(st.refine.plan(c, BlockKind::kRefine, refine_trials(cfg), block_size_),
                         true, rest.refine,
                         [&](const stats::StreamingSummary::State& state) {
                           return TrialPartial::restored(cfg, sketch, reservoir, state, {});
                         },
                         initial);
        break;
      case Phase::kDone:
        restore_result(r, rest, cfg, sketch, reservoir);
        break;
    }
    return bound;
  }
  if (rest.phase == Phase::kDone) {
    restore_result(r, rest, cfg, sketch, reservoir);
    return 0;
  }
  // Batch configs pin the slot grid to the lane width (a trial block IS
  // one lane batch), so slot boundaries stay a pure function of the
  // config — never of --block-size — and checkpoints stay addressable.
  st.trials.entrants = {cfg.source};
  std::vector<Block> owned =
      st.trials.plan(c, BlockKind::kTrials, cfg.trials, effective_block_size(cfg, block_size_));
  const std::size_t slots = owned.size();
  std::erase_if(owned, [&](const Block& b) {
    return shard_of_block(r.id, b.slot, /*whole_config=*/false, shard_count_) != shard_;
  });
  finalize_here_[c] = owned.size() == slots ? 1 : 0;
  return st.trials.resume(owned, finalize_here_[c] != 0, rest.slots,
                          [&](const CampaignRecorder::Entry::Slot& part) {
                            return TrialPartial::restored(cfg, sketch, reservoir, part.summary,
                                                          part.curves);
                          },
                          initial);
}

void CampaignRun::build_graph_once(std::size_t c, obs::WorkerSink* sink) {
  const CampaignConfig& cfg = configs_[c];
  ConfigState& st = states_[c];
  // Lazy one-shot set-up on whichever worker gets there first: the graph
  // table entry, then this configuration's own view of it. call_once
  // re-runs on a later caller if the builder throws, but the error capture
  // in the worker loop drains the queue before that matters.
  std::call_once(st.build_once, [&] {
    GraphEntry& entry = graphs_[st.graph_entry];
    std::call_once(entry.built, [&] {
      const std::uint64_t build_begin = sink != nullptr ? sink->now_ns() : 0;
      entry.graph = cfg.prebuilt != nullptr
                        ? cfg.prebuilt
                        : std::make_shared<const Graph>(build_graph(cfg.graph, cfg.seed));
      if (sink != nullptr) {
        sink->metrics.graph_builds += 1;
        sink->span("graph:build", build_begin, sink->now_ns(), static_cast<std::uint32_t>(c));
      }
    });
    const Graph& g = *entry.graph;
    // Snapshot the built graph's identity: merge needs it to assemble
    // results for configurations whose blocks were split across shards.
    recorder_.record_graph(c, g.name(), g.num_nodes());
    if (cfg.dynamics.weights.model != dynamics::WeightModel::kNone &&
        cfg.dynamics.churn.model == dynamics::ChurnModel::kNone) {
      const dynamics::DynamicsSpec spec = resolved_dynamics(cfg);
      auto sampler = std::make_shared<dynamics::NeighborAliasTable>();
      sampler->build(dynamics::csr_offsets(g),
                     dynamics::make_edge_weights(g, spec.weights, spec.seed));
      st.weighted = std::move(sampler);
    }
    if (cfg.dynamics.churn.model != dynamics::ChurnModel::kNone) {
      st.edges = std::make_shared<const std::vector<graph::Edge>>(dynamics::base_edge_list(g));
    }
  });
}

void CampaignRun::process(const Block& block, obs::WorkerSink* sink) {
  build_graph_once(block.config, sink);
  const Graph& g = *graphs_[states_[block.config].graph_entry].graph;
  switch (block.kind) {
    case BlockKind::kTrials: on_trials(block, g, sink); break;
    case BlockKind::kPlan: on_plan(block, g); break;
    case BlockKind::kScreen: on_screen(block, g, sink); break;
    case BlockKind::kRefine: on_refine(block, g, sink); break;
  }
}

void CampaignRun::on_trials(const Block& block, const Graph& g, obs::WorkerSink* sink) {
  const CampaignConfig& cfg = configs_[block.config];
  ConfigState& st = states_[block.config];
  obs::WorkerMetrics* const metrics = sink != nullptr ? &sink->metrics : nullptr;
  // The engines only assert() this precondition, which compiles out in
  // Release — and spec-driven sources are user input, so check it here.
  if (cfg.source >= g.num_nodes()) {
    throw std::runtime_error("campaign: configuration '" + results_[block.config].id +
                             "' source " + std::to_string(cfg.source) +
                             " is out of range for " + g.name());
  }
  TrialPartial partial(cfg, options_.sketch_capacity, options_.reservoir_capacity);
  if (cfg.engine == EngineKind::kBatchSync) {
    // One block = one lane batch on one shared engine, seeded by the
    // block's first trial index — the batch analogue of run_one's
    // derive_stream(seed, t) identity. effective_block_size pinned the
    // slot grid to cfg.lanes, so lane l of this block is trial
    // block.begin + l under every thread count, shard split, and resume.
    core::BatchSyncOptions batch_options;
    batch_options.mode = cfg.mode;
    batch_options.message_loss = cfg.message_loss;
    batch_options.lanes = static_cast<std::uint32_t>(block.end - block.begin);
    rng::Engine eng = rng::derive_stream(cfg.seed, block.begin);
    const core::BatchSyncResult batch = core::run_batch_sync(g, cfg.source, eng, batch_options);
    if (!batch.completed) {
      throw std::runtime_error(
          "campaign: engine 'batch_sync' hit its round cap (disconnected graph?)");
    }
    for (std::uint32_t l = 0; l < batch.lanes; ++l) {
      partial.summary.add(static_cast<double>(batch.rounds[l]), block.begin + l);
    }
    if (metrics != nullptr) metrics->sync_rounds += batch.total_rounds;
  } else {
    const bool curves_on = partial.curves.has_value();
    run_block_trials(cfg, g, st.weighted.get(), st.edges.get(), cfg.source, cfg.seed, block.begin,
                     block.end, metrics, curves_on ? &*partial.curves : nullptr,
                     curves_on ? &partial.contacts : nullptr,
                     [&](double value, std::uint64_t t) { partial.summary.add(value, t); });
  }
  const bool last = st.trials.land(block, std::move(partial), [&](const TrialPartial& p) {
    recorder_.record_trial_slot(block.config, block.slot, p.summary,
                                p.curves ? &*p.curves : nullptr, &p.contacts);
  });
  if (!last) return;
  // Last owned block: fold in slot order when this run owns every slot.
  if (finalize_here_[block.config] != 0) {
    const std::uint64_t merge_begin = sink != nullptr ? sink->now_ns() : 0;
    st.trials.fold(0).move_into(results_[block.config]);
    publish(block.config, g, sink, merge_begin);
  }
  release(block.config, sink);
}

void CampaignRun::on_plan(const Block& block, const Graph& g) {
  const CampaignConfig& cfg = configs_[block.config];
  Pass<stats::RunningMoments>& screen = states_[block.config].screen;
  screen.entrants = candidate_sources(g, cfg.race.max_candidates);
  std::vector<Block> blocks =
      screen.plan(block.config, BlockKind::kScreen, cfg.race.screen_trials, block_size_);
  // Recorded before the screen blocks can run, so no snapshot ever holds
  // screen partials without the candidate list they index.
  recorder_.record_plan(block.config, screen.entrants);
  queue_.push(std::move(blocks));
}

void CampaignRun::on_screen(const Block& block, const Graph& g, obs::WorkerSink* sink) {
  const CampaignConfig& cfg = configs_[block.config];
  ConfigState& st = states_[block.config];
  const graph::NodeId u = st.screen.entrants[block.entrant];
  stats::RunningMoments partial;
  run_block_trials(cfg, g, st.weighted.get(), st.edges.get(), u, cfg.seed + kSourceStride * u,
                   block.begin, block.end, sink != nullptr ? &sink->metrics : nullptr, nullptr,
                   nullptr, [&](double value, std::uint64_t) { partial.add(value); });
  const bool last = st.screen.land(block, partial, [&](const stats::RunningMoments& p) {
    recorder_.record_screen_slot(block.config, block.entrant, block.slot, p);
  });
  if (!last) return;
  // Screening complete: rank candidates by mean (descending, node id as
  // the deterministic tie-break) and enqueue the refine pass for the
  // leaders.
  std::vector<std::pair<double, graph::NodeId>> screened;
  screened.reserve(st.screen.entrants.size());
  for (std::size_t i = 0; i < st.screen.entrants.size(); ++i) {
    screened.emplace_back(st.screen.fold(i).mean(), st.screen.entrants[i]);
  }
  st.screen.release();
  std::sort(screened.begin(), screened.end(), std::greater<>());
  screened.resize(std::min<std::size_t>(cfg.race.finalists, screened.size()));
  st.refine.entrants.clear();
  for (const auto& leader : screened) st.refine.entrants.push_back(leader.second);
  std::vector<Block> blocks =
      st.refine.plan(block.config, BlockKind::kRefine, refine_trials(cfg), block_size_);
  // As with record_plan: finalists land in the snapshot before any refine
  // partial can reference them.
  recorder_.record_finalists(block.config, st.refine.entrants);
  queue_.push(std::move(blocks));
}

void CampaignRun::on_refine(const Block& block, const Graph& g, obs::WorkerSink* sink) {
  const CampaignConfig& cfg = configs_[block.config];
  ConfigState& st = states_[block.config];
  const graph::NodeId u = st.refine.entrants[block.entrant];
  TrialPartial partial(cfg, options_.sketch_capacity, options_.reservoir_capacity);
  run_block_trials(cfg, g, st.weighted.get(), st.edges.get(), u, cfg.seed + 1 + kSourceStride * u,
                   block.begin, block.end, sink != nullptr ? &sink->metrics : nullptr, nullptr,
                   nullptr, [&](double value, std::uint64_t t) { partial.summary.add(value, t); });
  const bool last = st.refine.land(block, std::move(partial), [&](const TrialPartial& p) {
    recorder_.record_refine_slot(block.config, block.entrant, block.slot, p.summary);
  });
  if (!last) return;
  // Refinement complete: keep the worst finalist's full summary as the
  // configuration's result (the first finalist in ranking order wins ties)
  // and the best finalist's mean beside it.
  const std::uint64_t merge_begin = sink != nullptr ? sink->now_ns() : 0;
  CampaignResult& r = results_[block.config];
  for (std::size_t i = 0; i < st.refine.entrants.size(); ++i) {
    stats::StreamingSummary total = std::move(st.refine.fold(i).summary);
    const double mean = total.mean();
    if (i == 0 || mean > r.summary.mean()) {
      r.source = st.refine.entrants[i];
      r.summary = std::move(total);
    }
    if (i == 0 || mean < r.best_mean) {
      r.best_source = st.refine.entrants[i];
      r.best_mean = mean;
    }
  }
  publish(block.config, g, sink, merge_begin);
  release(block.config, sink);
}

void CampaignRun::publish(std::size_t c, const Graph& g, obs::WorkerSink* sink,
                          std::uint64_t merge_begin) {
  CampaignResult& r = results_[c];
  r.graph_name = g.name();
  r.n = g.num_nodes();
  if (sink != nullptr) {
    sink->span("merge", merge_begin, sink->now_ns(), static_cast<std::uint32_t>(c));
  }
  recorder_.record_done(c, r);
}

void CampaignRun::release(std::size_t c, obs::WorkerSink* sink) {
  ConfigState& st = states_[c];
  st.trials.release();
  st.screen.release();
  st.refine.release();
  st.weighted.reset();
  st.edges.reset();
  GraphEntry& entry = graphs_[st.graph_entry];
  if (entry.holders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    entry.graph.reset();
    if (sink != nullptr) sink->metrics.graph_frees += 1;
  }
}

}  // namespace

CampaignOutcome run_campaign_resumable(const std::vector<CampaignConfig>& configs,
                                       const CampaignOptions& options,
                                       const std::string& campaign_name, const Json* resume,
                                       bool snapshot) {
  const std::uint32_t shard_count = std::max<std::uint32_t>(options.shard_count, 1);
  if (options.shard_index < 1 || options.shard_index > shard_count) {
    throw std::runtime_error("campaign: shard index " + std::to_string(options.shard_index) +
                             " out of range 1.." + std::to_string(shard_count));
  }
  if (!options.checkpoint_file.empty() || resume != nullptr || snapshot) {
    // Snapshots address configurations by id, so a run that writes, reads
    // or returns one needs unique ids (the spec parser already rejects
    // collisions; this guards API callers handing in configs directly).
    std::map<std::string, std::size_t> seen;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto [it, inserted] = seen.emplace(resolved_config_id(configs[c], c), c);
      if (!inserted) {
        throw std::runtime_error("campaign: configurations " + std::to_string(it->second) +
                                 " and " + std::to_string(c) + " share the id '" + it->first +
                                 "' (checkpoints and shards address configs by id)");
      }
    }
  }
  // Always built: one scheduler path serves plain, checkpointed, sharded
  // and resumed runs. Without a checkpoint file it never writes.
  auto recorder = std::make_unique<CampaignRecorder>(configs, options, campaign_name);
  std::vector<CampaignRecorder::Entry> restored(configs.size());
  if (resume != nullptr) restored = recorder->load(*resume);

  // Telemetry is strictly observational: every hook below sits behind an
  // `if (tel)` (or a sink pointer), so a null sink is the exact pre-existing
  // code path and attached telemetry never influences scheduling decisions.
  obs::Telemetry* const tel = options.telemetry;
  CampaignRun run(configs, options, *recorder, tel);
  std::vector<Block> initial;
  std::size_t block_estimate = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    block_estimate += run.setup(c, restored[c], initial);
  }
  restored.clear();

  unsigned workers = options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, block_estimate));
  if (tel != nullptr) {
    std::vector<std::string> ids;
    ids.reserve(configs.size());
    for (const CampaignResult& r : run.results()) ids.push_back(r.id);
    tel->begin(std::move(ids), std::max(workers, 1u), campaign_name);
  }
  run.queue().push(std::move(initial));

  std::exception_ptr error;
  std::mutex error_mutex;
  std::atomic<bool> stopped{false};
  auto worker = [&](unsigned wid) {
    obs::WorkerSink* const sink = tel != nullptr ? &tel->sink(wid) : nullptr;
    std::uint64_t wait_begin = sink != nullptr ? sink->now_ns() : 0;
    Block block;
    while (run.queue().pop(block)) {
      const std::uint64_t started = sink != nullptr ? sink->now_ns() : 0;
      if (sink != nullptr) sink->metrics.idle_ns += started - wait_begin;
      if (tel != nullptr) tel->set_phase(block_names(block.kind).phase);
      bool ok = false;
      try {
        run.process(block, sink);
        ok = true;
        if (recorder->block_finished()) {
          // stop_after_blocks budget exhausted: drain the queue; in-flight
          // blocks still finish and record, so the final checkpoint below
          // loses nothing that was computed.
          stopped.store(true, std::memory_order_relaxed);
          run.queue().abort();
        }
      } catch (...) {
        {
          const std::scoped_lock lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        run.queue().abort();
      }
      run.queue().finish_one();
      if (sink != nullptr) {
        const std::uint64_t finished = sink->now_ns();
        sink->metrics.busy_ns += finished - started;
        if (ok) {
          // Exact counters count *successful* blocks only; kPlan blocks have
          // begin == end, so trial attribution is uniform across kinds.
          sink->metrics.blocks_executed += 1;
          sink->metrics.trials_simulated += block.end - block.begin;
          obs::ConfigCost& cost = sink->per_config[block.config];
          cost.blocks += 1;
          cost.trials += block.end - block.begin;
          cost.busy_ns += finished - started;
          sink->span(block_names(block.kind).span, started, finished,
                     static_cast<std::uint32_t>(block.config),
                     static_cast<std::int64_t>(block.slot));
        }
        wait_begin = finished;
      }
      if (ok && tel != nullptr) tel->on_block_done();
    }
    if (sink != nullptr) sink->metrics.idle_ns += sink->now_ns() - wait_begin;
  };

  if (workers <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker, i);
    for (auto& th : pool) th.join();
  }
  if (error) {
    recorder.reset();  // stops the checkpoint writer before telemetry ends
    if (tel != nullptr) tel->end();
    std::rethrow_exception(error);
  }

  CampaignOutcome outcome;
  outcome.results = std::move(run.results());
  outcome.complete = !stopped.load(std::memory_order_relaxed);
  // The periodic writer finishes (or rethrows its error) first, so the
  // final write finish() makes is the last one to land; the snapshot
  // document, when asked for, is built once, after it, from the typed store.
  recorder->drain_writes();
  outcome.blocks_done = recorder->blocks_done();
  outcome.snapshot = recorder->finish(outcome.complete, snapshot);
  if (tel != nullptr) tel->end();
  return outcome;
}

std::vector<CampaignResult> run_campaign(const std::vector<CampaignConfig>& configs,
                                         const CampaignOptions& options) {
  return std::move(run_campaign_resumable(configs, options, "campaign", nullptr, false).results);
}

// --- Config rules and spec parsing -------------------------------------------

std::string check_config(const CampaignConfig& cfg) {
  const bool raced = cfg.source_policy == SourcePolicy::kRace;
  const std::string engine = engine_name(cfg.engine);
  if (!cfg.dynamics.is_static()) {
    // The engines only support dynamics where the contact sequence is drawn
    // against the live adjacency.
    if (cfg.engine != EngineKind::kSync && cfg.engine != EngineKind::kAsync) {
      return "'dynamics' needs engine 'sync' or 'async' (got '" + engine + "')";
    }
    if (cfg.engine == EngineKind::kAsync && cfg.view != core::AsyncView::kGlobalClock) {
      return "'dynamics' needs the global-clock async view";
    }
  }
  if (cfg.engine == EngineKind::kBatchSync) {
    // Races need run_one's per-source stream family; the batch engine
    // interleaves up to 64 trials on one stream.
    if (cfg.lanes == 0 || cfg.lanes > core::kMaxBatchLanes) {
      return "key 'lanes' must be in 1.." + std::to_string(core::kMaxBatchLanes);
    }
    if (raced) return "engine 'batch_sync' needs a fixed source (not \"race\")";
  }
  if (cfg.curves.enabled) {
    // Curves need a per-trial contact structure to classify and one fixed
    // trial population per cell.
    if (cfg.engine == EngineKind::kAux || cfg.engine == EngineKind::kBatchSync) {
      return "'curves' is not supported for engine '" + engine + "'";
    }
    if (raced) return "'curves' needs a fixed source (not \"race\")";
    if (cfg.curves.points == 0) return "curves: key 'points' must be >= 1";
    if (!(cfg.curves.time_bucket > 0.0)) return "curves: key 'time_bucket' must be > 0";
  }
  if (cfg.race.screen_trials == 0) return "key 'screen_trials' must be >= 1";
  if (cfg.race.finalists == 0) return "key 'finalists' must be >= 1";
  auto in_unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  const dynamics::ChurnParams& churn = cfg.dynamics.churn;
  if (!in_unit(churn.birth) || !in_unit(churn.death)) {
    return "dynamics: keys 'birth' and 'death' must be in [0, 1]";
  }
  if (!in_unit(churn.rewire)) return "dynamics: key 'rewire_p' must be in [0, 1]";
  if (churn.period == 0) return "dynamics: key 'period' must be >= 1";
  if (!(cfg.dynamics.weights.alpha > 0.0)) return "dynamics: key 'weight_alpha' must be > 0";
  if (!(cfg.message_loss >= 0.0 && cfg.message_loss < 1.0)) {
    return "key 'message_loss' must be in [0, 1)";
  }
  if (!(cfg.hp_q >= 0.0 && cfg.hp_q < 1.0)) return "key 'hp_q' must be in [0, 1)";
  if (!in_unit(cfg.graph.p)) return "key 'p' must be in [0, 1]";
  if (!(cfg.graph.beta > 0.0 && cfg.graph.average_degree > 0.0)) {
    return "keys 'beta' and 'average_degree' must be positive";
  }
  return {};
}

namespace {

/// One allowed key of a spec object. `parse` reads the key's value into its
/// CampaignConfig field and returns "" or an error that names the key.
struct KeyRow {
  const char* key;
  std::string (*parse)(std::string_view key, const Json& value, CampaignConfig& cfg);
};

/// The rows of one kind of object, in the order they apply. Where two keys
/// write one field the later row wins: the flat race keys over the `race`
/// block.
using Table = std::initializer_list<std::span<const KeyRow>>;

// The typed readers (json/json.hpp): a number, a string, or an unsigned
// field checked against its width before the cast.
using json::must_be;
using json::read;

/// An enum field, looked up by the names `name` gives enumerators 0, 1, ...
/// (every name function answers "?" past the last one). With `empty_keeps`,
/// "" leaves the inherited value in place.
template <class E, class NameFn>
std::string read_enum(std::string_view key, const Json& v, E& out, NameFn name,
                      bool empty_keeps = false) {
  if (!v.is_string()) return must_be(key, "a string");
  const std::string& s = v.as_string();
  if (s.empty() && empty_keeps) return {};
  std::string names;
  for (int i = 0; std::string_view(name(static_cast<E>(i))) != "?"; ++i) {
    if (s == name(static_cast<E>(i))) {
      out = static_cast<E>(i);
      return {};
    }
    names += std::string(i == 0 ? "" : "/") + name(static_cast<E>(i));
  }
  return must_be(key, "one of " + names + " (got '" + s + "')");
}

bool has_row(Table table, std::string_view key) {
  for (std::span<const KeyRow> rows : table) {
    for (const KeyRow& row : rows) {
      if (key == row.key) return true;
    }
  }
  return false;
}

/// Rejects every key of `obj` that neither `table` nor `also_allowed` has a
/// row for, then applies the rows of `table` whose key is present, in
/// table order. Returns the first error.
std::string apply_rows(const Json& obj, Table table, CampaignConfig& cfg,
                       Table also_allowed = {}) {
  for (const auto& [key, value] : obj.entries()) {
    if (!has_row(table, key) && !has_row(also_allowed, key)) {
      return "unknown key '" + key + "'";
    }
  }
  for (std::span<const KeyRow> rows : table) {
    for (const KeyRow& row : rows) {
      if (const Json* v = obj.find(row.key); v != nullptr) {
        if (std::string error = row.parse(row.key, *v, cfg); !error.empty()) return error;
      }
    }
  }
  return {};
}

/// A nested block: its own rows, with errors labelled by the block's key.
std::string apply_block(std::string_view key, const Json& v, Table table, CampaignConfig& cfg) {
  if (!v.is_object()) return must_be(key, "an object");
  const std::string error = apply_rows(v, table, cfg);
  return error.empty() ? error : std::string(key) + ": " + error;
}

/// Worst-source race tuning: the `race` block, and flat on a config.
constexpr KeyRow kRaceRows[] = {
    {"screen_trials",
     [](auto key, auto& v, auto& c) { return read(key, v, c.race.screen_trials); }},
    {"finalists", [](auto key, auto& v, auto& c) { return read(key, v, c.race.finalists); }},
    {"final_trials",
     [](auto key, auto& v, auto& c) { return read(key, v, c.race.final_trials); }},
    {"max_candidates",
     [](auto key, auto& v, auto& c) { return read(key, v, c.race.max_candidates); }},
};

/// Generator parameters: in the graph object, and flat on a config.
constexpr KeyRow kGeneratorRows[] = {
    {"p", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.p); }},
    {"degree", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.degree); }},
    {"beta", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.beta); }},
    {"average_degree",
     [](auto key, auto& v, auto& c) { return read(key, v, c.graph.average_degree); }},
    {"graph_seed", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.graph_seed); }},
};

/// The `curves` block; its presence turns spread telemetry on.
constexpr KeyRow kCurvesRows[] = {
    {"points", [](auto key, auto& v, auto& c) { return read(key, v, c.curves.points); }},
    {"time_bucket", [](auto key, auto& v, auto& c) { return read(key, v, c.curves.time_bucket); }},
};

/// The `dynamics` block: churn model and parameters, weight model and
/// parameters. It merges over the defaults' block key by key.
constexpr KeyRow kDynamicsRows[] = {
    {"churn",
     [](auto key, auto& v, auto& c) {
       return read_enum(key, v, c.dynamics.churn.model, dynamics::churn_model_name, true);
     }},
    {"birth", [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.churn.birth); }},
    {"death", [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.churn.death); }},
    {"rewire_p",
     [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.churn.rewire); }},
    {"period", [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.churn.period); }},
    {"weights",
     [](auto key, auto& v, auto& c) {
       return read_enum(key, v, c.dynamics.weights.model, dynamics::weight_model_name, true);
     }},
    {"weight_alpha",
     [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.weights.alpha); }},
    {"dynamics_seed", [](auto key, auto& v, auto& c) { return read(key, v, c.dynamics.seed); }},
};

/// The graph object's own keys (beside the generator rows).
constexpr KeyRow kGraphRows[] = {
    {"kind", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.family); }},
    {"path", [](auto key, auto& v, auto& c) { return read(key, v, c.graph.path); }},
};

/// The engine object. `lanes` is the batch engine's lane width and, via
/// effective_block_size, the cell's trial block size.
constexpr KeyRow kEngineRows[] = {
    {"kind", [](auto key, auto& v, auto& c) { return read_enum(key, v, c.engine, engine_name); }},
    {"lanes", [](auto key, auto& v, auto& c) { return read(key, v, c.lanes); }},
};

/// "source": a node id (fixed policy), or the policy name "fixed" / "race".
std::string read_source(std::string_view key, const Json& v, CampaignConfig& cfg) {
  if (!v.is_string()) {
    cfg.source_policy = SourcePolicy::kFixed;
    return read(key, v, cfg.source);
  }
  for (const SourcePolicy policy : {SourcePolicy::kFixed, SourcePolicy::kRace}) {
    if (v.as_string() == source_policy_name(policy)) {
      cfg.source_policy = policy;
      return {};
    }
  }
  return must_be(key, "a node id, \"fixed\", or \"race\"");
}

/// "graph": a family name, or an object {"kind": <family> | "file", ...}
/// carrying per-graph generator keys. Kind "file" instead takes "path" (a
/// packed graph store, graph/graph_store.hpp) and no generator keys: the
/// store knows its own shape.
std::string read_graph(std::string_view key, const Json& v, CampaignConfig& cfg) {
  if (v.is_string()) return read(key, v, cfg.graph.family);
  if (!v.is_object()) return must_be(key, "a family name or an object with 'kind'");
  std::string error = apply_rows(v, {kGraphRows, kGeneratorRows}, cfg);
  const bool file = cfg.graph.family == "file";
  if (error.empty() && cfg.graph.family.empty()) error = "missing required key 'kind'";
  if (error.empty() && file && cfg.graph.path.empty()) {
    error = "kind 'file' needs a non-empty 'path'";
  }
  if (error.empty() && !file && !cfg.graph.path.empty()) {
    error = "key 'path' is only allowed with kind 'file'";
  }
  for (const KeyRow& row : kGeneratorRows) {
    if (error.empty() && file && v.find(row.key) != nullptr) {
      error = std::string("key '") + row.key +
              "' is not allowed with kind 'file' (the store knows its own shape)";
    }
  }
  return error.empty() ? error : std::string(key) + ": " + error;
}

/// "engine": a name, or an object {"kind": <name>, "lanes": ...}.
std::string read_engine(std::string_view key, const Json& v, CampaignConfig& cfg) {
  if (v.is_string()) return read_enum(key, v, cfg.engine, engine_name);
  if (!v.is_object()) return must_be(key, "a name or a {\"kind\": ...} object");
  std::string error = apply_rows(v, {kEngineRows}, cfg);
  if (error.empty() && v.find("kind") == nullptr) error = "missing required key 'kind'";
  if (error.empty() && v.find("lanes") != nullptr && cfg.engine != EngineKind::kBatchSync) {
    error = "key 'lanes' is only allowed with kind 'batch_sync'";
  }
  return error.empty() ? error : std::string(key) + ": " + error;
}

/// The keys a config entry and `defaults` share.
constexpr KeyRow kConfigRows[] = {
    {"trials", [](auto key, auto& v, auto& c) { return read(key, v, c.trials); }},
    {"seed", [](auto key, auto& v, auto& c) { return read(key, v, c.seed); }},
    {"source", read_source},
    {"race", [](auto key, auto& v, auto& c) { return apply_block(key, v, {kRaceRows}, c); }},
    {"message_loss", [](auto key, auto& v, auto& c) { return read(key, v, c.message_loss); }},
    {"dynamics",
     [](auto key, auto& v, auto& c) { return apply_block(key, v, {kDynamicsRows}, c); }},
    {"curves",
     [](auto key, auto& v, auto& c) {
       c.curves.enabled = true;
       return apply_block(key, v, {kCurvesRows}, c);
     }},
    {"hp_q", [](auto key, auto& v, auto& c) { return read(key, v, c.hp_q); }},
    {"reservoir_capacity",
     [](auto key, auto& v, auto& c) { return read(key, v, c.reservoir_capacity); }},
    {"view",
     [](auto key, auto& v, auto& c) {
       return read_enum(key, v, c.view, core::async_view_name, true);
     }},
    {"aux",
     [](auto key, auto& v, auto& c) {
       return read_enum(key, v, c.aux, core::aux_kind_name, true);
     }},
};

/// Keys only a config entry has.
constexpr KeyRow kEntryRows[] = {
    {"id", [](auto key, auto& v, auto& c) { return read(key, v, c.id); }},
    {"graph", read_graph},
};

/// Keys that may hold an array: each element is one cell, and an entry
/// expands to the cross product of its arrays (n outermost, mode fastest).
/// They apply per cell; an entry without the key takes the defaults' value.
constexpr KeyRow kCellRows[] = {
    {"n",
     [](auto key, auto& v, auto& c) {
       const std::string error = read(key, v, c.graph.n);
       return error.empty() && c.graph.n < 2 ? must_be(key, "an integer >= 2") : error;
     }},
    {"engine", read_engine},
    {"mode", [](auto key, auto& v, auto& c) { return read_enum(key, v, c.mode, core::mode_name); }},
};

/// Collects a scalar-or-array key as a vector of Json scalars (one-element
/// vector for scalars, empty when the key is absent).
std::vector<const Json*> scalar_or_array(const Json& obj, const std::string& key) {
  std::vector<const Json*> out;
  const Json* v = obj.find(key);
  if (v == nullptr) return out;
  if (v->is_array()) {
    for (const Json& e : v->elements()) out.push_back(&e);
  } else {
    out.push_back(v);
  }
  return out;
}

/// The id of a cell whose entry gives none: graph, engine, mode, and what
/// else sets the cell apart (lane width, race, churn and weight models).
std::string derived_id(const CampaignConfig& cfg) {
  std::string graph_tag = cfg.graph.family + "_n" + std::to_string(cfg.graph.n);
  if (cfg.graph.family == "file") {
    // Tag by the store's file stem ("file-web" for "data/web.rgs"); two
    // stores with one stem collide — give explicit ids.
    std::string stem = cfg.graph.path;
    if (const auto slash = stem.find_last_of("/\\"); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (const auto dot = stem.rfind('.'); dot != std::string::npos && dot > 0) {
      stem.resize(dot);
    }
    graph_tag = "file-" + stem;
  }
  std::string id = graph_tag + "_" + engine_name(cfg.engine) + "_" + core::mode_name(cfg.mode);
  // Lane width is part of a batch cell's identity: two cells differing only
  // in lanes run different block grids.
  if (cfg.engine == EngineKind::kBatchSync) id += "_lanes" + std::to_string(cfg.lanes);
  if (cfg.source_policy == SourcePolicy::kRace) id += "_race";
  if (cfg.dynamics.churn.model != dynamics::ChurnModel::kNone) {
    id += std::string("_") + dynamics::churn_model_name(cfg.dynamics.churn.model);
  }
  if (cfg.dynamics.weights.model != dynamics::WeightModel::kNone) {
    id += std::string("_w-") + dynamics::weight_model_name(cfg.dynamics.weights.model);
  }
  return id;
}

}  // namespace

CampaignSpec parse_campaign_spec(const Json& doc) {
  CampaignSpec spec;
  if (!doc.is_object()) {
    spec.error = "campaign spec must be a JSON object";
    return spec;
  }
  spec.name = "campaign";
  if (const Json* name = doc.find("name"); name != nullptr) {
    spec.error = read("name", *name, spec.name);
    if (!spec.error.empty()) return spec;
  }

  // Defaults apply to every config entry (each entry may override). Their
  // "engine" and "mode" must be names, resolved per cell like an entry's.
  const Json no_defaults = Json::object();
  const Json* defaults = doc.find("defaults");
  if (defaults == nullptr) defaults = &no_defaults;
  if (!defaults->is_object()) {
    spec.error = "'defaults' must be an object";
    return spec;
  }
  const auto default_cell_rows = std::span(kCellRows).subspan(1);  // all but "n"
  CampaignConfig proto;
  std::string error =
      apply_rows(*defaults, {kConfigRows, kRaceRows, kGeneratorRows}, proto, {default_cell_rows});
  for (const KeyRow& row : default_cell_rows) {
    const Json* v = defaults->find(row.key);
    if (error.empty() && v != nullptr && !v->is_string()) error = must_be(row.key, "a string");
  }
  if (error.empty()) error = check_config(proto);
  if (!error.empty()) {
    spec.error = "defaults: " + error;
    return spec;
  }

  const Json* entries = doc.find("configs");
  if (entries == nullptr || !entries->is_array() || entries->elements().empty()) {
    spec.error = "'configs' must be a non-empty array";
    return spec;
  }

  // id -> the spec entry that first produced it. Collisions (explicit or
  // auto-derived) are rejected: checkpoints, shards, and merge address
  // configurations by id, so silently suffixing "#1" would make snapshot
  // identity depend on spec order.
  std::map<std::string, std::size_t> id_first;
  for (std::size_t e = 0; e < entries->elements().size(); ++e) {
    const Json& entry = entries->elements()[e];
    const std::string where = "configs[" + std::to_string(e) + "]";
    if (!entry.is_object()) {
      spec.error = where + " must be an object";
      return spec;
    }
    // Two passes: the flat keys are checked before the graph object may
    // override them, as the defaults are before the entry overrides them.
    CampaignConfig base = proto;
    error = apply_rows(entry, {kConfigRows, kRaceRows, kGeneratorRows}, base,
                       {kEntryRows, kCellRows});
    if (error.empty()) error = check_config(base);
    if (error.empty()) {
      error = apply_rows(entry, {kEntryRows}, base,
                         {kConfigRows, kRaceRows, kGeneratorRows, kCellRows});
    }
    if (error.empty() && base.graph.family.empty()) error = "missing required key 'graph'";
    // File-backed cells have no "n" (the store knows its own), so their
    // n-dimension is a single pass-through slot.
    const bool file_graph = base.graph.family == "file";
    std::vector<const Json*> values[std::size(kCellRows)];
    for (std::size_t k = 0; k < std::size(kCellRows); ++k) {
      values[k] = scalar_or_array(entry, kCellRows[k].key);
      if (values[k].empty()) values[k] = scalar_or_array(*defaults, kCellRows[k].key);
    }
    if (error.empty() && file_graph && !values[0].empty()) {
      error = "key 'n' is not allowed with graph kind 'file' (the store knows its own node count)";
    }
    if (error.empty() && !file_graph && values[0].empty()) error = "missing required key 'n'";
    if (!error.empty()) {
      spec.error = where + ": " + error;
      return spec;
    }
    for (std::size_t ni = 0; ni < std::max<std::size_t>(values[0].size(), 1); ++ni) {
      for (std::size_t ei = 0; ei < std::max<std::size_t>(values[1].size(), 1); ++ei) {
        for (std::size_t mi = 0; mi < std::max<std::size_t>(values[2].size(), 1); ++mi) {
          CampaignConfig cfg = base;
          const std::size_t pick[] = {ni, ei, mi};
          for (std::size_t k = 0; k < std::size(kCellRows) && error.empty(); ++k) {
            if (values[k].empty()) continue;
            error = kCellRows[k].parse(kCellRows[k].key, *values[k][pick[k]], cfg);
          }
          if (error.empty()) error = check_config(cfg);
          if (!error.empty()) {
            spec.error = where + ": " + error;
            return spec;
          }
          if (cfg.id.empty()) cfg.id = derived_id(cfg);
          const auto [first, inserted] = id_first.emplace(cfg.id, e);
          if (!inserted) {
            spec.error = where + ": config id '" + cfg.id + "' collides with a cell of configs[" +
                         std::to_string(first->second) + "]" +
                         (base.id.empty() ? "; give the entries distinct explicit \"id\"s" : "");
            return spec;
          }
          spec.configs.push_back(std::move(cfg));
        }
      }
    }
  }
  return spec;
}

// --- Reporting ---------------------------------------------------------------

namespace {

/// A report's stats.curves object: mean/band informed-count curves on the
/// config's grid, the derived phase decomposition, and exact contact
/// totals.
Json curves_json(const CampaignResult& result) {
  const stats::CurveAccumulator& c = result.curves;
  const bool time_grid = result.engine == "async";
  const double step = time_grid ? result.curves_spec.time_bucket : 1.0;
  Json curves = Json::object();
  curves.set("grid", time_grid ? "time" : "rounds");
  curves.set("time_bucket", time_grid ? Json(result.curves_spec.time_bucket) : Json());
  curves.set("points", static_cast<std::uint64_t>(c.points()));
  curves.set("trials", c.trials());
  curves.set("max_len", c.max_len());
  // Fixed-source cells start with exactly one informed node; the
  // conservation check needs the count explicit.
  curves.set("sources", 1);
  Json mean = Json::array();
  Json stddev = Json::array();
  Json p10 = Json::array();
  Json p50 = Json::array();
  Json p90 = Json::array();
  for (std::size_t k = 0; k < c.points(); ++k) {
    mean.push_back(c.mean_at(k));
    stddev.push_back(c.stddev_at(k));
    p10.push_back(c.quantile_at(k, 0.10));
    p50.push_back(c.quantile_at(k, 0.50));
    p90.push_back(c.quantile_at(k, 0.90));
  }
  curves.set("mean", std::move(mean));
  curves.set("stddev", std::move(stddev));
  curves.set("p10", std::move(p10));
  curves.set("p50", std::move(p50));
  curves.set("p90", std::move(p90));
  // Phase decomposition of the mean curve: startup until 10% informed,
  // exponential growth until 90%, shrink until everyone (n - 0.5 guards
  // against float fuzz in the mean of integer counts). A threshold the
  // grid never reaches renders as null — the curve was cut short.
  const double nn = static_cast<double>(result.n);
  auto first_reach = [&](double threshold) -> Json {
    for (std::size_t k = 0; k < c.points(); ++k) {
      if (c.mean_at(k) >= threshold) return Json(static_cast<double>(k) * step);
    }
    return Json();
  };
  const Json startup_end = first_reach(0.1 * nn);
  const Json growth_end = first_reach(0.9 * nn);
  const Json spread_end = first_reach(nn - 0.5);
  Json phases = Json::object();
  phases.set("startup_end", startup_end);
  phases.set("growth_end", growth_end);
  phases.set("spread_end", spread_end);
  phases.set("startup_duration", startup_end);
  phases.set("growth_duration",
             !startup_end.is_null() && !growth_end.is_null()
                 ? Json(growth_end.as_number() - startup_end.as_number())
                 : Json());
  phases.set("shrink_duration", !growth_end.is_null() && !spread_end.is_null()
                                    ? Json(spread_end.as_number() - growth_end.as_number())
                                    : Json());
  curves.set("phases", std::move(phases));
  curves.set("contacts", result.contacts.to_json());
  return curves;
}

}  // namespace

Json campaign_report(const CampaignResult& result, const std::string& campaign_name) {
  const stats::StreamingSummary& s = result.summary;
  Json report = Json::object();
  report.set("experiment", campaign_name + "/" + result.id);
  report.set("schema_version", kReportSchemaVersion);
  report.set("title", result.graph_name + " — " + result.engine + " " + result.mode + ", " +
                          std::to_string(result.trials) + " trials");

  Json params = Json::object();
  params.set("graph", result.graph_name);
  params.set("n", result.n);
  params.set("engine", result.engine);
  if (result.engine == "batch_sync") {
    // Lane width only appears for batch cells, so every pre-existing
    // report keeps its exact key set.
    params.set("lanes", static_cast<std::uint64_t>(result.lanes));
  }
  params.set("mode", result.mode);
  params.set("trials", result.trials);
  params.set("seed", result.seed);
  params.set("hp_q", result.hp_q);
  params.set("source_policy", source_policy_name(result.source_policy));
  if (!result.dynamics.is_static()) {
    // Dynamics parameters only appear when configured, so static reports
    // (and every pre-dynamics baseline) keep their exact key set.
    Json dyn = Json::object();
    dyn.set("churn", dynamics::churn_model_name(result.dynamics.churn.model));
    if (result.dynamics.churn.model == dynamics::ChurnModel::kMarkov) {
      dyn.set("birth", result.dynamics.churn.birth);
      dyn.set("death", result.dynamics.churn.death);
    } else if (result.dynamics.churn.model == dynamics::ChurnModel::kRewire) {
      dyn.set("rewire_p", result.dynamics.churn.rewire);
    }
    if (result.dynamics.churn.model != dynamics::ChurnModel::kNone) {
      dyn.set("period", result.dynamics.churn.period);
    }
    dyn.set("weights", dynamics::weight_model_name(result.dynamics.weights.model));
    if (result.dynamics.weights.model == dynamics::WeightModel::kHeavyTailed) {
      dyn.set("weight_alpha", result.dynamics.weights.alpha);
    }
    dyn.set("dynamics_seed", result.dynamics.seed);
    params.set("dynamics", std::move(dyn));
  }
  report.set("params", std::move(params));

  const auto ci = s.mean_ci();
  Json row = Json::object();
  row.set("graph", result.graph_name);
  row.set("n", result.n);
  row.set("trials", result.trials);
  row.set("mean", s.mean());
  row.set("stddev", s.stddev());
  row.set("stderr", s.stderr_mean());
  row.set("min", s.min());
  row.set("max", s.max());
  row.set("median", s.median());
  row.set("p95", s.quantile(0.95));
  row.set("hp_time", s.hp_time(result.hp_q));
  row.set("mean_ci_lower", ci.lower);
  row.set("mean_ci_upper", ci.upper);
  Json rows = Json::array();
  rows.push_back(std::move(row));
  report.set("rows", std::move(rows));

  Json stats = Json::object();
  stats.set("mean", s.mean());
  stats.set("stderr_mean", s.stderr_mean());
  stats.set("hp_time", s.hp_time(result.hp_q));
  if (result.source_policy == SourcePolicy::kRace) {
    // The summary above is the refined measurement of the worst source; the
    // best finalist quantifies how much source placement matters.
    stats.set("worst_source", result.source);
    stats.set("best_source", result.best_source);
    stats.set("best_mean", result.best_mean);
  }
  if (result.has_curves) {
    // Only present when the config enabled curves, so plain reports keep
    // their exact pre-existing key set.
    stats.set("curves", curves_json(result));
  }
  report.set("stats", std::move(stats));

  report.set("notes",
             "Streaming summary: mean/min/max exact (merged Welford moments); median/p95/"
             "hp_time from a mergeable quantile sketch (rank error bounds documented in "
             "tests/test_streaming.cpp); CI bootstrapped from a bounded uniform reservoir.");
  report.set("build_info", obs::build_info_json());
  return report;
}

void render_campaign_reports(const std::vector<CampaignResult>& results,
                             const std::string& campaign_name, unsigned threads,
                             const std::function<void(std::size_t, Json&)>& emit) {
  parallel_for(results.size(), threads, [&](std::uint64_t i) {
    Json report = campaign_report(results[i], campaign_name);
    emit(i, report);
  });
}

int report_depth(std::size_t count) { return count == 1 ? 0 : 1; }

std::vector<std::string_view> report_json_parts(const std::vector<std::string>& fragments) {
  std::vector<std::string_view> parts;
  if (fragments.size() == 1) {
    parts = {fragments.front(), "\n"};
  } else if (fragments.empty()) {
    parts = {"[]\n"};
  } else {
    parts.reserve(2 * fragments.size() + 1);
    for (const std::string& f : fragments) {
      parts.emplace_back(parts.empty() ? "[\n  " : ",\n  ");
      parts.emplace_back(f);
    }
    parts.emplace_back("\n]\n");
  }
  return parts;
}

}  // namespace rumor::sim
