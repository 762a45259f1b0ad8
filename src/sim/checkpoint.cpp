#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string_view>

#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"

namespace rumor::sim {

// --- Fingerprint and shard partition -----------------------------------------

namespace {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Canonical field renderings for the fingerprint. Doubles go through the
/// exact round-trip formatter (Json::dump), so any value change — however
/// small — changes the hash.
void put(std::string& out, const std::string& s) {
  out += s;
  out += '|';
}
void put(std::string& out, const char* s) {
  out += s;
  out += '|';
}
void put(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += '|';
}
void put(std::string& out, double v) {
  out += Json(v).dump();
  out += '|';
}

}  // namespace

std::string resolved_config_id(const CampaignConfig& cfg, std::size_t index) {
  return !cfg.id.empty() ? cfg.id : "cfg" + std::to_string(index);
}

std::string campaign_fingerprint(const std::string& campaign_name,
                                 const std::vector<CampaignConfig>& configs) {
  std::string canon = campaign_name;
  canon += '\n';
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CampaignConfig& cfg = configs[c];
    put(canon, resolved_config_id(cfg, c));
    if (cfg.prebuilt != nullptr) {
      // Prebuilt graphs are hashed by identity (name, nodes, edges), not
      // structure: API campaigns that hand in a graph must hand in the same
      // graph on resume, and this is the cheap stand-in for that contract.
      put(canon, "prebuilt");
      put(canon, cfg.prebuilt->name());
      put(canon, static_cast<std::uint64_t>(cfg.prebuilt->num_nodes()));
      put(canon, static_cast<std::uint64_t>(cfg.prebuilt->num_edges()));
    } else if (cfg.graph.family == "file") {
      // File-backed graphs are hashed by the store's content identity —
      // the packed checksum plus shape — never the path: moving or
      // renaming the store keeps checkpoints valid, while repacking a
      // different graph at the same path is refused on resume.
      const graph::GraphStoreInfo info = graph::read_graph_store_info(cfg.graph.path);
      put(canon, "file");
      put(canon, hex64(info.checksum));
      put(canon, info.n);
      put(canon, info.arcs);
    } else {
      put(canon, cfg.graph.family);
      put(canon, cfg.graph.n);
      put(canon, cfg.graph.p);
      put(canon, static_cast<std::uint64_t>(cfg.graph.degree));
      put(canon, cfg.graph.beta);
      put(canon, cfg.graph.average_degree);
      put(canon, cfg.graph.graph_seed);
    }
    put(canon, engine_name(cfg.engine));
    put(canon, core::mode_name(cfg.mode));
    put(canon, static_cast<std::uint64_t>(cfg.view));
    put(canon, static_cast<std::uint64_t>(cfg.aux));
    put(canon, cfg.message_loss);
    put(canon, static_cast<std::uint64_t>(cfg.source));
    put(canon, source_policy_name(cfg.source_policy));
    put(canon, cfg.race.screen_trials);
    put(canon, static_cast<std::uint64_t>(cfg.race.finalists));
    put(canon, cfg.race.final_trials);
    put(canon, static_cast<std::uint64_t>(cfg.race.max_candidates));
    put(canon, dynamics::churn_model_name(cfg.dynamics.churn.model));
    put(canon, cfg.dynamics.churn.birth);
    put(canon, cfg.dynamics.churn.death);
    put(canon, cfg.dynamics.churn.rewire);
    put(canon, cfg.dynamics.churn.period);
    put(canon, dynamics::weight_model_name(cfg.dynamics.weights.model));
    put(canon, cfg.dynamics.weights.alpha);
    put(canon, cfg.dynamics.seed);
    put(canon, cfg.trials);
    put(canon, cfg.seed);
    put(canon, cfg.hp_q);
    if (cfg.curves.enabled) {
      // Appended only when the cell records curves, so every fingerprint of
      // a curve-free spec — including all pre-existing snapshots — is
      // unchanged.
      put(canon, "curves");
      put(canon, static_cast<std::uint64_t>(cfg.curves.points));
      put(canon, cfg.curves.time_bucket);
    }
    if (cfg.engine == EngineKind::kBatchSync) {
      // Lane width defines the batch cell's block grid and RNG streams, so
      // it is part of the snapshot identity; conditional for the same
      // reason as the curves block above.
      put(canon, "lanes");
      put(canon, static_cast<std::uint64_t>(cfg.lanes));
    }
    canon += '\n';
  }
  return hex64(fnv1a(canon));
}

std::uint32_t shard_of_block(const std::string& config_id, std::size_t slot, bool whole_config,
                             std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  std::uint64_t h = fnv1a(config_id);
  if (!whole_config) {
    // Mix the slot in multiplicatively so neighboring slots scatter across
    // shards (balanced partials even for single-config campaigns).
    h ^= static_cast<std::uint64_t>(slot) * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  }
  rng::SplitMix64 sm(h);
  return static_cast<std::uint32_t>(sm.next() % shard_count);
}

stats::StreamingSummary::Options summary_options_for(const CampaignConfig& cfg,
                                                     std::size_t /*sketch_capacity*/,
                                                     std::size_t reservoir_capacity) {
  stats::StreamingSummary::Options options;
  options.reservoir_capacity = reservoir_capacity;
  options.reservoir_salt = cfg.seed;
  return options;
}

stats::CurveAccumulator::Options curve_options_for(const CampaignConfig& cfg,
                                                   std::size_t sketch_capacity) {
  stats::CurveAccumulator::Options options;
  options.points = cfg.curves.points;
  options.sketch_capacity = sketch_capacity;
  return options;
}

// --- The snapshot entry codec ------------------------------------------------

namespace {

[[noreturn]] void fail(const std::string& ctx, const std::string& what) {
  throw std::runtime_error(ctx + ": " + what);
}

using json::get;
using json::member;

// A phase's partial-block array may be legally absent: a snapshot taken
// between a phase transition and that phase's first completed block has
// nothing to record yet.
const std::vector<Json>& opt_array(const Json& obj, const char* key, const std::string& ctx) {
  static const std::vector<Json> empty;
  return obj.find(key) == nullptr ? empty : json::array_member(obj, key, ctx);
}

using Entry = CampaignRecorder::Entry;
using Phase = Entry::Phase;

/// One curve partial with its contact totals: the value of a slot entry's
/// optional "curves" key, and of the done result's "curves" key.
Json curves_to_json(const Entry::Curves& c) {
  Json o = c.state.to_json();
  o.set("contacts", c.contacts.to_json());
  return o;
}

Entry::Curves curves_from_json(const Json& o, std::size_t points, const std::string& ctx) {
  Entry::Curves c;
  c.state = stats::CurveAccumulator::State::from_json(o, ctx);
  if (c.state.moments.size() != points || c.state.sketches.size() != points) {
    fail(ctx, "curve partial has grid length " + std::to_string(c.state.moments.size()) + "/" +
                  std::to_string(c.state.sketches.size()) + ", the spec's curves.points is " +
                  std::to_string(points));
  }
  c.contacts = stats::ContactTotals::from_json(member(o, "contacts", ctx), ctx);
  return c;
}

Json ids_to_json(const std::vector<graph::NodeId>& ids) {
  Json arr = Json::array();
  for (const graph::NodeId u : ids) arr.push_back(static_cast<std::uint64_t>(u));
  return arr;
}

/// `obj`'s array of node ids under `key`.
std::vector<graph::NodeId> ids_from_json(const Json& obj, const char* key,
                                         const std::string& ctx) {
  std::vector<graph::NodeId> out;
  for (const Json& v : json::array_member(obj, key, ctx)) {
    if (!json::read(key, v, out.emplace_back()).empty()) {
      fail(ctx, std::string("'") + key + "' entries must be node ids");
    }
  }
  return out;
}

constexpr const char* kPhaseNames[] = {"pending", "trials", "screen", "refine", "done"};

/// A screen or refine block: {"entrant", "slot", <key>: state}.
template <typename State>
Json race_slots_to_json(const std::map<Entry::RaceSlot, State>& blocks, const char* key) {
  Json arr = Json::array();
  for (const auto& [at, state] : blocks) {
    Json s = Json::object();
    s.set("entrant", static_cast<std::uint64_t>(at.first));
    s.set("slot", static_cast<std::uint64_t>(at.second));
    s.set(key, state.to_json());
    arr.push_back(std::move(s));
  }
  return arr;
}

/// Reads a screen or refine block array into `out`, checking every
/// (entrant, slot) against `entrants` x `slots` and for duplicates.
template <typename State>
void race_slots_from_json(const Json& e, const char* array, const char* key, std::size_t entrants,
                          std::size_t slots, std::map<Entry::RaceSlot, State>& out,
                          const std::string& ctx) {
  for (const Json& s : opt_array(e, array, ctx)) {
    const auto entrant = get<std::uint32_t>(s, "entrant", ctx);
    const auto slot = get<std::size_t>(s, "slot", ctx);
    const std::string where = std::string(array) + " block (entrant " + std::to_string(entrant) +
                              ", slot " + std::to_string(slot) + ")";
    if (entrant >= entrants || slot >= slots) fail(ctx, where + " out of range");
    if (!out.emplace(std::make_pair(entrant, slot), State::from_json(member(s, key, ctx), ctx))
             .second) {
      fail(ctx, "duplicate " + where);
    }
  }
}

/// Config `id`'s `configs[]` entry: the one encoder of snapshot entries.
Json entry_to_json(const std::string& id, const Entry& e) {
  Json j = Json::object();
  j.set("id", id);
  j.set("phase", kPhaseNames[static_cast<std::size_t>(e.phase)]);
  if (e.phase == Phase::kDone) {
    Json r = Json::object();
    r.set("graph", e.graph_name);
    r.set("n", e.n);
    r.set("source", static_cast<std::uint64_t>(e.source));
    r.set("best_source", static_cast<std::uint64_t>(e.best_source));
    r.set("best_mean", e.best_mean);
    r.set("summary", e.summary.to_json());
    if (e.curves) r.set("curves", curves_to_json(*e.curves));
    j.set("result", std::move(r));
    return j;
  }
  if (e.has_graph) {
    j.set("graph", e.graph_name);
    j.set("n", e.n);
  }
  if (!e.slots.empty()) {
    Json slots = Json::array();
    for (const auto& [slot, part] : e.slots) {
      Json s = Json::object();
      s.set("slot", static_cast<std::uint64_t>(slot));
      s.set("summary", part.summary.to_json());
      if (part.curves) s.set("curves", curves_to_json(*part.curves));
      slots.push_back(std::move(s));
    }
    j.set("slots", std::move(slots));
  }
  if (e.phase == Phase::kScreen) j.set("candidates", ids_to_json(e.candidates));
  if (!e.screen.empty()) j.set("screen", race_slots_to_json(e.screen, "moments"));
  if (e.phase == Phase::kRefine) j.set("finalists", ids_to_json(e.finalists));
  if (!e.refine.empty()) j.set("refine", race_slots_to_json(e.refine, "summary"));
  return j;
}

/// The one decoder of snapshot entries, shared by load() and merge: reads
/// configuration `cfg`'s entry and checks it against the spec — its id, a
/// phase its source policy can be in, every block slot inside the config's
/// slot grid at `block_size` and recorded once, and a curve partial on
/// exactly the slots of a curves-enabled config.
Entry entry_from_json(const Json& j, const CampaignConfig& cfg, const std::string& id,
                      std::uint64_t block_size, const std::string& ctx) {
  const auto got = get<std::string>(j, "id", ctx);
  if (got != id) fail(ctx, "id mismatch (snapshot '" + got + "')");
  const auto phase = get<std::string>(j, "phase", ctx);
  const bool race = cfg.source_policy == SourcePolicy::kRace;
  Entry e;
  if (const Json* g = j.find("graph"); g != nullptr && g->is_string()) {
    e.graph_name = g->as_string();
    e.n = get<std::uint64_t>(j, "n", ctx);
    e.has_graph = true;
  }

  if (phase == "pending") {
    e.phase = Phase::kPending;
  } else if (phase == "trials") {
    if (race) fail(ctx, "race configuration cannot be in phase 'trials'");
    e.phase = Phase::kTrials;
    // Batch configs pin their slot grid to the lane width, matching the
    // scheduler (one trial block = one lane batch).
    const std::size_t slots = slot_count(cfg.trials, effective_block_size(cfg, block_size));
    for (const Json& s : opt_array(j, "slots", ctx)) {
      const auto slot = get<std::size_t>(s, "slot", ctx);
      if (slot >= slots) {
        fail(ctx, "slot " + std::to_string(slot) + " out of range (config has " +
                      std::to_string(slots) + " blocks)");
      }
      // Curve partials travel with their slot: a curves-enabled config
      // must have one per recorded slot (and a curve-free config none),
      // so resume never silently drops telemetry that was computed.
      const Json* cv = s.find("curves");
      if (cfg.curves.enabled && cv == nullptr) {
        fail(ctx, "slot " + std::to_string(slot) +
                      " has no curve partial but the spec enables curves");
      }
      if (!cfg.curves.enabled && cv != nullptr) {
        fail(ctx, "slot " + std::to_string(slot) +
                      " has a curve partial but the spec does not enable curves");
      }
      Entry::Slot part{
          stats::StreamingSummary::State::from_json(member(s, "summary", ctx), ctx), std::nullopt};
      if (cv != nullptr) part.curves = curves_from_json(*cv, cfg.curves.points, ctx);
      if (!e.slots.emplace(slot, std::move(part)).second) {
        fail(ctx, "duplicate slot " + std::to_string(slot));
      }
    }
  } else if (phase == "screen") {
    if (!race) fail(ctx, "fixed-source configuration cannot be in phase 'screen'");
    e.phase = Phase::kScreen;
    e.candidates = ids_from_json(j, "candidates", ctx);
    if (e.candidates.empty()) fail(ctx, "'candidates' must be non-empty");
    race_slots_from_json(j, "screen", "moments", e.candidates.size(),
                         slot_count(cfg.race.screen_trials, block_size), e.screen, ctx);
  } else if (phase == "refine") {
    if (!race) fail(ctx, "fixed-source configuration cannot be in phase 'refine'");
    e.phase = Phase::kRefine;
    e.finalists = ids_from_json(j, "finalists", ctx);
    if (e.finalists.empty()) fail(ctx, "'finalists' must be non-empty");
    const std::uint64_t final_trials =
        cfg.race.final_trials != 0 ? cfg.race.final_trials : cfg.trials;
    race_slots_from_json(j, "refine", "summary", e.finalists.size(),
                         slot_count(final_trials, block_size), e.refine, ctx);
  } else if (phase == "done") {
    e.phase = Phase::kDone;
    const Json& result = member(j, "result", ctx);
    e.graph_name = get<std::string>(result, "graph", ctx);
    e.n = get<std::uint64_t>(result, "n", ctx);
    e.has_graph = false;  // the result carries the graph identity
    e.source = get<graph::NodeId>(result, "source", ctx);
    e.best_source = get<graph::NodeId>(result, "best_source", ctx);
    e.best_mean = get<double>(result, "best_mean", ctx);
    e.summary = stats::StreamingSummary::State::from_json(member(result, "summary", ctx), ctx);
    if (cfg.curves.enabled) {
      e.curves = curves_from_json(member(result, "curves", ctx), cfg.curves.points, ctx);
    }
  } else {
    fail(ctx, "unknown phase '" + phase + "'");
  }
  return e;
}

/// One snapshot's validated header.
struct SnapshotHeader {
  std::string campaign;
  std::string spec_hash;
  std::uint64_t block_size = 0;
  std::uint64_t sketch_capacity = 0;
  std::uint64_t reservoir_capacity = 0;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
  bool finished = false;
  std::uint64_t blocks_done = 0;
};

SnapshotHeader parse_header(const Json& doc, const std::string& ctx) {
  if (!doc.is_object()) fail(ctx, "document is not a JSON object");
  const auto format = get<std::string>(doc, "format", ctx);
  if (format != kSnapshotFormat) {
    fail(ctx, "not a campaign checkpoint (format '" + format + "', expected '" +
                  kSnapshotFormat + "')");
  }
  const auto version = get<std::uint64_t>(doc, "version", ctx);
  if (version != static_cast<std::uint64_t>(kSnapshotVersion)) {
    fail(ctx, "unsupported checkpoint version " + std::to_string(version) + " (this build reads " +
                  std::to_string(kSnapshotVersion) + ")");
  }
  SnapshotHeader h;
  h.campaign = get<std::string>(doc, "campaign", ctx);
  h.spec_hash = get<std::string>(doc, "spec_hash", ctx);
  h.block_size = get<std::uint64_t>(doc, "block_size", ctx);
  h.sketch_capacity = get<std::uint64_t>(doc, "sketch_capacity", ctx);
  h.reservoir_capacity = get<std::uint64_t>(doc, "reservoir_capacity", ctx);
  h.shard_index = get<std::uint32_t>(doc, "shard_index", ctx);
  h.shard_count = get<std::uint32_t>(doc, "shard_count", ctx);
  h.finished = get<bool>(doc, "finished", ctx);
  h.blocks_done = get<std::uint64_t>(doc, "blocks_done", ctx);
  return h;
}

/// Header checks shared by resume and merge: the snapshot must describe
/// exactly this spec (name + fingerprint).
void check_spec_identity(const SnapshotHeader& h, const std::string& campaign_name,
                         const std::string& spec_hash, const std::string& ctx) {
  if (h.campaign != campaign_name) {
    fail(ctx, "snapshot is for campaign '" + h.campaign + "', this spec is '" + campaign_name +
                  "'");
  }
  if (h.spec_hash != spec_hash) {
    fail(ctx, "spec hash mismatch (snapshot " + h.spec_hash + ", spec " + spec_hash +
                  "): the spec file or its --trials/--seed/--scale overrides changed");
  }
}

/// The snapshot's `configs` array, which must hold one entry per
/// configuration of the spec.
const std::vector<Json>& config_entries(const Json& doc, std::size_t count,
                                        const std::string& ctx) {
  const std::vector<Json>& entries = json::array_member(doc, "configs", ctx);
  if (entries.size() != count) {
    fail(ctx, "snapshot has " + std::to_string(entries.size()) + " configs, spec has " +
                  std::to_string(count));
  }
  return entries;
}

}  // namespace

SnapshotLayout snapshot_layout(const Json& snapshot) {
  const SnapshotHeader h = parse_header(snapshot, "checkpoint");
  return {h.block_size, h.shard_index, h.shard_count};
}

// --- CampaignRecorder --------------------------------------------------------

CampaignRecorder::CampaignRecorder(const std::vector<CampaignConfig>& configs,
                                   const CampaignOptions& options, std::string campaign_name)
    : configs_(configs), options_(options), campaign_name_(std::move(campaign_name)) {
  options_.block_size = std::max<std::uint64_t>(options_.block_size, 1);
  options_.shard_count = std::max<std::uint32_t>(options_.shard_count, 1);
  spec_hash_ = campaign_fingerprint(campaign_name_, configs_);
  store_.resize(configs_.size());
  dirty_.assign(configs_.size(), 1);
  fragments_.resize(configs_.size());
}

void CampaignRecorder::record_graph(std::size_t config, const std::string& graph_name,
                                    std::uint64_t n) {
  const std::scoped_lock lock(mutex_);
  Entry& e = store_[config];
  e.graph_name = graph_name;
  e.n = n;
  e.has_graph = true;
  dirty_[config] = 1;
}

void CampaignRecorder::record_trial_slot(std::size_t config, std::size_t slot,
                                         const stats::StreamingSummary& partial,
                                         const stats::CurveAccumulator* curves,
                                         const stats::ContactTotals* contacts) {
  Entry::Slot part{partial.state(), std::nullopt};
  if (curves != nullptr) part.curves = Entry::Curves{curves->state(), *contacts};
  const std::scoped_lock lock(mutex_);
  Entry& e = store_[config];
  e.phase = Phase::kTrials;
  e.slots.insert_or_assign(slot, std::move(part));
  dirty_[config] = 1;
}

void CampaignRecorder::record_plan(std::size_t config,
                                   const std::vector<graph::NodeId>& candidates) {
  const std::scoped_lock lock(mutex_);
  Entry& e = store_[config];
  e.phase = Phase::kScreen;
  e.candidates = candidates;
  dirty_[config] = 1;
}

void CampaignRecorder::record_screen_slot(std::size_t config, std::uint32_t entrant,
                                          std::size_t slot,
                                          const stats::RunningMoments& partial) {
  const std::scoped_lock lock(mutex_);
  store_[config].screen.insert_or_assign({entrant, slot}, partial.state());
  dirty_[config] = 1;
}

void CampaignRecorder::record_finalists(std::size_t config,
                                        const std::vector<graph::NodeId>& finalists) {
  const std::scoped_lock lock(mutex_);
  Entry& e = store_[config];
  e.phase = Phase::kRefine;
  e.finalists = finalists;
  // The screen pass is folded and gone; the snapshot drops it with it.
  e.screen.clear();
  e.candidates.clear();
  dirty_[config] = 1;
}

void CampaignRecorder::record_refine_slot(std::size_t config, std::uint32_t entrant,
                                          std::size_t slot,
                                          const stats::StreamingSummary& partial) {
  stats::StreamingSummary::State state = partial.state();
  const std::scoped_lock lock(mutex_);
  store_[config].refine.insert_or_assign({entrant, slot}, std::move(state));
  dirty_[config] = 1;
}

void CampaignRecorder::record_done(std::size_t config, const CampaignResult& result) {
  Entry done;
  done.phase = Phase::kDone;
  done.graph_name = result.graph_name;
  done.n = result.n;
  done.source = result.source;
  done.best_source = result.best_source;
  done.best_mean = result.best_mean;
  done.summary = result.summary.state();
  if (result.has_curves) done.curves = Entry::Curves{result.curves.state(), result.contacts};
  const std::scoped_lock lock(mutex_);
  store_[config] = std::move(done);
  dirty_[config] = 1;
}

CampaignRecorder::~CampaignRecorder() { stop_writer(); }

bool CampaignRecorder::block_finished() {
  bool write = false;
  bool stop = false;
  {
    const std::scoped_lock lock(mutex_);
    if (write_error_) std::rethrow_exception(write_error_);
    ++blocks_done_;
    ++session_blocks_;
    stop = options_.stop_after_blocks != 0 && session_blocks_ >= options_.stop_after_blocks;
    // The stop path skips the periodic write: run_campaign_resumable
    // writes the final (authoritative) snapshot after the queue drains.
    write = !stop && !options_.checkpoint_file.empty() && options_.checkpoint_every != 0 &&
            session_blocks_ % options_.checkpoint_every == 0;
    if (write) {
      write_pending_ = true;
      if (!writer_.joinable()) writer_ = std::thread([this] { writer_loop(); });
    }
  }
  if (write) writer_cv_.notify_one();
  return stop;
}

void CampaignRecorder::writer_loop() {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      writer_cv_.wait(lock, [this] { return write_pending_ || writer_stop_; });
      if (writer_stop_) return;
      write_pending_ = false;
    }
    try {
      write_checkpoint(false);
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      write_error_ = std::current_exception();
      return;
    }
  }
}

void CampaignRecorder::stop_writer() noexcept {
  {
    const std::scoped_lock lock(mutex_);
    writer_stop_ = true;
  }
  writer_cv_.notify_one();
  if (writer_.joinable()) writer_.join();
}

void CampaignRecorder::drain_writes() {
  stop_writer();
  const std::scoped_lock lock(mutex_);
  if (write_error_) std::rethrow_exception(write_error_);
}

Json CampaignRecorder::snapshot_header(bool finished) const {
  Json doc = Json::object();
  doc.set("format", kSnapshotFormat);
  doc.set("version", kSnapshotVersion);
  // The report-layout version (sim/experiment.hpp): snapshots embed
  // report-facing summaries, and loaders ignore unknown keys, so stamping
  // it is load-compatible with every pre-existing snapshot.
  doc.set("schema_version", kReportSchemaVersion);
  doc.set("campaign", campaign_name_);
  doc.set("spec_hash", spec_hash_);
  doc.set("block_size", options_.block_size);
  doc.set("sketch_capacity", static_cast<std::uint64_t>(options_.sketch_capacity));
  doc.set("reservoir_capacity", static_cast<std::uint64_t>(options_.reservoir_capacity));
  doc.set("shard_index", options_.shard_index);
  doc.set("shard_count", options_.shard_count);
  doc.set("finished", finished);
  doc.set("blocks_done", blocks_done_);
  // Wall-clock provenance for operators juggling shard fleets: merge
  // tolerates skew but warns when shards were written far apart (see
  // report_stale_snapshots). Loaders treat the key as optional, so
  // pre-existing snapshots (and the version number) stay valid.
  doc.set("written_at", static_cast<std::uint64_t>(std::time(nullptr)));
  return doc;
}

Json CampaignRecorder::configs_json() const {
  Json arr = Json::array();
  for (std::size_t c = 0; c < store_.size(); ++c) {
    arr.push_back(entry_to_json(resolved_config_id(configs_[c], c), store_[c]));
  }
  return arr;
}

Json CampaignRecorder::snapshot(bool finished) const {
  const std::scoped_lock lock(mutex_);
  Json doc = snapshot_header(finished);
  doc.set("configs", configs_json());
  return doc;
}

void CampaignRecorder::write_checkpoint(bool finished) {
  const std::scoped_lock write_lock(write_mutex_);
  (void)write_locked(finished);
}

Json CampaignRecorder::write_locked(bool finished) {
  // The span covers the whole write: copying what changed, encoding and
  // rendering it, then the durable write (write + fsync + rename + dir
  // fsync).
  obs::Telemetry* const tel = options_.telemetry;
  const std::uint64_t write_begin = tel != nullptr ? tel->now_ns() : 0;
  Json header;
  std::vector<std::pair<std::size_t, Entry>> changed;
  {
    const std::scoped_lock lock(mutex_);
    header = snapshot_header(finished);
    for (std::size_t c = 0; c < store_.size(); ++c) {
      if (dirty_[c] == 0) continue;
      changed.emplace_back(c, store_[c]);
      dirty_[c] = 0;
    }
  }
  // Encoded and rendered outside mutex_, so workers keep recording meanwhile.
  for (const auto& [c, entry] : changed) {
    fragments_[c].clear();
    entry_to_json(resolved_config_id(configs_[c], c), entry).dump_to(fragments_[c], 2, 2);
  }
  // Gather the header and the fragments exactly as snapshot().dump(2)
  // would lay out its trailing `"configs": [...]` member, without
  // concatenating them.
  const std::string head = header.dump(2);
  std::vector<std::string_view> parts;
  parts.reserve(2 * fragments_.size() + 3);
  parts.emplace_back(head.data(), head.size() - 2);  // less the closing "\n}"
  if (fragments_.empty()) {
    parts.emplace_back(",\n  \"configs\": []");
  } else {
    parts.emplace_back(",\n  \"configs\": [\n    ");
    for (std::size_t c = 0; c < fragments_.size(); ++c) {
      if (c != 0) parts.emplace_back(",\n    ");
      parts.emplace_back(fragments_[c]);
    }
    parts.emplace_back("\n  ]");
  }
  parts.emplace_back("\n}\n");
  std::string error;
  if (!write_file_atomic(options_.checkpoint_file, parts, error)) {
    throw std::runtime_error("checkpoint: cannot write " + options_.checkpoint_file + ": " +
                             error);
  }
  if (tel != nullptr) tel->on_checkpoint_write(write_begin, tel->now_ns());
  return header;
}

Json CampaignRecorder::finish(bool finished, bool snapshot) {
  const std::scoped_lock write_lock(write_mutex_);
  Json doc;
  if (!options_.checkpoint_file.empty()) {
    doc = write_locked(finished);
  } else if (snapshot) {
    const std::scoped_lock lock(mutex_);
    doc = snapshot_header(finished);
  }
  if (!snapshot) return Json();
  // The cached text is dead weight from here on: free it before the
  // document is built. A later write re-renders every entry.
  std::vector<std::string>(configs_.size()).swap(fragments_);
  const std::scoped_lock lock(mutex_);
  dirty_.assign(configs_.size(), 1);
  doc.set("configs", configs_json());
  return doc;
}

std::uint64_t CampaignRecorder::blocks_done() const {
  const std::scoped_lock lock(mutex_);
  return blocks_done_;
}

// --- Partials and results shared by the scheduler and merge -----------------

TrialPartial::TrialPartial(const CampaignConfig& cfg, std::size_t sketch_capacity,
                           std::size_t reservoir_capacity)
    : summary(summary_options_for(cfg, sketch_capacity, reservoir_capacity)) {
  if (cfg.curves.enabled) curves.emplace(curve_options_for(cfg, sketch_capacity));
}

TrialPartial TrialPartial::restored(const CampaignConfig& cfg, std::size_t sketch_capacity,
                                    std::size_t reservoir_capacity,
                                    const stats::StreamingSummary::State& summary,
                                    const std::optional<Entry::Curves>& curves) {
  TrialPartial p;
  p.summary = stats::StreamingSummary::restored(
      summary_options_for(cfg, sketch_capacity, reservoir_capacity), summary);
  if (curves) {
    p.curves = stats::CurveAccumulator::restored(curve_options_for(cfg, sketch_capacity),
                                                 curves->state);
    p.contacts = curves->contacts;
  }
  return p;
}

void TrialPartial::merge(const TrialPartial& other) {
  summary.merge(other.summary);
  if (curves) {
    curves->merge(*other.curves);
    contacts.merge(other.contacts);
  }
}

void TrialPartial::move_into(CampaignResult& r) && {
  r.summary = std::move(summary);
  if (curves) {
    r.curves = std::move(*curves);
    r.contacts = contacts;
  }
}

void restore_result(CampaignResult& r, const Entry& done, const CampaignConfig& cfg,
                    std::size_t sketch_capacity, std::size_t reservoir_capacity) {
  r.graph_name = done.graph_name;
  r.n = done.n;
  r.source = done.source;
  r.best_source = done.best_source;
  r.best_mean = done.best_mean;
  TrialPartial::restored(cfg, sketch_capacity, reservoir_capacity, done.summary, done.curves)
      .move_into(r);
}

std::vector<CampaignRecorder::Entry> CampaignRecorder::load(const Json& doc) {
  const std::string ctx = "checkpoint";
  const SnapshotHeader h = parse_header(doc, ctx);
  check_spec_identity(h, campaign_name_, spec_hash_, ctx);
  if (h.block_size != options_.block_size) {
    fail(ctx, "snapshot used block size " + std::to_string(h.block_size) + ", this run uses " +
                  std::to_string(options_.block_size));
  }
  if (h.sketch_capacity != options_.sketch_capacity ||
      h.reservoir_capacity != options_.reservoir_capacity) {
    fail(ctx, "snapshot used sketch/reservoir capacities " + std::to_string(h.sketch_capacity) +
                  "/" + std::to_string(h.reservoir_capacity) + ", this run uses " +
                  std::to_string(options_.sketch_capacity) + "/" +
                  std::to_string(options_.reservoir_capacity));
  }
  if (h.shard_index != options_.shard_index || h.shard_count != options_.shard_count) {
    fail(ctx, "snapshot is shard " + std::to_string(h.shard_index) + "/" +
                  std::to_string(h.shard_count) + " but this run is shard " +
                  std::to_string(options_.shard_index) + "/" +
                  std::to_string(options_.shard_count));
  }
  const std::vector<Json>& entries = config_entries(doc, configs_.size(), ctx);
  std::vector<Entry> loaded;
  loaded.reserve(configs_.size());
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    const std::string id = resolved_config_id(configs_[c], c);
    loaded.push_back(entry_from_json(entries[c], configs_[c], id, options_.block_size,
                                     ctx + ": configs[" + std::to_string(c) + "] ('" + id + "')"));
  }
  // Every loaded entry starts dirty, so the next write re-renders it.
  const std::scoped_lock lock(mutex_);
  store_ = loaded;
  dirty_.assign(configs_.size(), 1);
  blocks_done_ = h.blocks_done;
  return loaded;
}

// --- Merge -------------------------------------------------------------------

std::vector<CampaignResult> merge_campaign_snapshots(const std::vector<CampaignConfig>& configs,
                                                     const std::string& campaign_name,
                                                     const std::vector<Json>& snapshots) {
  if (snapshots.empty()) throw std::runtime_error("merge: no shard snapshots given");
  const std::string spec_hash = campaign_fingerprint(campaign_name, configs);
  const auto k = static_cast<std::uint32_t>(snapshots.size());

  std::vector<const Json*> by_shard(k, nullptr);  // 0-based: shard i -> snapshot doc
  std::uint64_t block_size = 0;
  std::uint64_t sketch_capacity = 0;
  std::uint64_t reservoir_capacity = 0;
  for (std::size_t f = 0; f < snapshots.size(); ++f) {
    const std::string ctx = "merge: snapshot " + std::to_string(f + 1);
    const SnapshotHeader h = parse_header(snapshots[f], ctx);
    check_spec_identity(h, campaign_name, spec_hash, ctx);
    if (h.shard_count != k) {
      fail(ctx, "declares " + std::to_string(h.shard_count) + " shards but " + std::to_string(k) +
                    " snapshot files were given");
    }
    if (h.shard_index < 1 || h.shard_index > k) {
      fail(ctx, "shard index " + std::to_string(h.shard_index) + " out of range 1.." +
                    std::to_string(k));
    }
    if (!h.finished) {
      fail(ctx, "shard " + std::to_string(h.shard_index) +
                    " is unfinished — resume it to completion before merging");
    }
    if (by_shard[h.shard_index - 1] != nullptr) {
      fail(ctx, "duplicate shard " + std::to_string(h.shard_index));
    }
    by_shard[h.shard_index - 1] = &snapshots[f];
    if (f == 0) {
      block_size = h.block_size;
      sketch_capacity = h.sketch_capacity;
      reservoir_capacity = h.reservoir_capacity;
    } else if (h.block_size != block_size || h.sketch_capacity != sketch_capacity ||
               h.reservoir_capacity != reservoir_capacity) {
      fail(ctx, "block size or capacities disagree with snapshot 1 (block " +
                    std::to_string(h.block_size) + " vs " + std::to_string(block_size) + ")");
    }
  }
  // k files with k distinct in-range indices fill every slot; any gap has
  // already been reported as a duplicate of some other index.

  // Validate per-shard config arrays once up front.
  std::vector<const std::vector<Json>*> shard_entries(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    shard_entries[s] = &config_entries(*by_shard[s], configs.size(),
                                       "merge: shard " + std::to_string(s + 1));
  }

  const auto sketch = static_cast<std::size_t>(sketch_capacity);
  const auto reservoir = static_cast<std::size_t>(reservoir_capacity);
  std::vector<CampaignResult> results;
  results.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CampaignConfig& cfg = configs[c];
    CampaignResult r = campaign_result_skeleton(cfg, c);
    const std::string ctx = "merge: config '" + r.id + "'";
    std::uint32_t done_shard = 0;  // 1-based; 0 = none
    Entry done;
    // slot -> (shard, its partial)
    std::map<std::size_t, std::pair<std::uint32_t, TrialPartial>> slots;
    std::uint32_t graph_shard = 0;

    for (std::uint32_t s = 0; s < k; ++s) {
      const std::string shard = "shard " + std::to_string(s + 1);
      Entry e = entry_from_json((*shard_entries[s])[c], cfg, r.id, block_size,
                                ctx + " in " + shard);
      switch (e.phase) {
        case Phase::kPending:
          continue;
        case Phase::kDone:
          if (done_shard != 0) {
            fail(ctx, "final result recorded by both shard " + std::to_string(done_shard) +
                          " and " + shard);
          }
          done_shard = s + 1;
          done = std::move(e);
          continue;
        case Phase::kScreen:
        case Phase::kRefine:
          fail(ctx, shard + " left this config mid-race (phase '" +
                        kPhaseNames[static_cast<std::size_t>(e.phase)] +
                        "'); shard snapshots must be finished");
        case Phase::kTrials:
          break;
      }
      if (!e.has_graph) fail(ctx + " in " + shard, "trial blocks without their graph");
      if (graph_shard == 0) {
        r.graph_name = e.graph_name;
        r.n = e.n;
        graph_shard = s + 1;
      } else if (e.graph_name != r.graph_name || e.n != r.n) {
        fail(ctx, "graph metadata disagrees between shard " + std::to_string(graph_shard) +
                      " and " + shard);
      }
      for (const auto& [slot, part] : e.slots) {
        const auto [it, inserted] = slots.try_emplace(
            slot, s + 1,
            TrialPartial::restored(cfg, sketch, reservoir, part.summary, part.curves));
        if (!inserted) {
          fail(ctx, "slot " + std::to_string(slot) + " recorded by both shard " +
                        std::to_string(it->second.first) + " and " + shard);
        }
      }
    }

    if (done_shard != 0) {
      if (!slots.empty()) {
        fail(ctx, "shard " + std::to_string(done_shard) + " has the final result but shard " +
                      std::to_string(slots.begin()->second.first) + " also recorded block slots");
      }
      restore_result(r, done, cfg, sketch, reservoir);
    } else {
      if (cfg.source_policy == SourcePolicy::kRace) {
        fail(ctx, "no shard finished this race configuration (coverage gap)");
      }
      const std::size_t expected =
          slot_count(cfg.trials, effective_block_size(cfg, block_size));
      if (slots.size() != expected) {
        std::size_t gap = 0;
        while (slots.count(gap) != 0) ++gap;
        fail(ctx, "missing block slot " + std::to_string(gap) + " of " +
                      std::to_string(expected) + " (coverage gap — were all " +
                      std::to_string(k) + " shard files provided?)");
      }
      // The scheduler's slot-order fold, on partials restored with its
      // construction options: bit-identical to the unsharded run's.
      std::vector<TrialPartial> parts;
      parts.reserve(slots.size());
      for (auto& [slot, owned] : slots) parts.push_back(std::move(owned.second));
      fold_slots(parts).move_into(r);
    }
    results.push_back(std::move(r));
  }
  return results;
}

// --- File helpers and the merge CLI ------------------------------------------

std::optional<CampaignSpec> load_campaign_spec_file(const std::string& path,
                                                    std::uint64_t trials_override,
                                                    std::uint64_t seed_override, unsigned scale,
                                                    const char* prog, std::ostream& err) {
  const auto doc = json::read_json_file(path, prog, err);
  if (!doc) return std::nullopt;
  CampaignSpec spec = parse_campaign_spec(*doc);
  if (!spec.error.empty()) {
    err << prog << ": bad campaign spec: " << spec.error << "\n";
    return std::nullopt;
  }
  // The global overrides keep their documented meaning here: --trials
  // replaces every configuration's trial count (--scale multiplies the
  // spec's own counts otherwise) and --seed replaces every root seed.
  // The spec parser and the CLI cap trial counts at 2^53 and --scale at 64,
  // so the product cannot wrap, but it may pass the cap they both keep.
  for (CampaignConfig& cfg : spec.configs) {
    cfg.trials = trials_override != 0 ? trials_override : cfg.trials * scale;
    if (cfg.trials > json::kMaxExactInteger) {
      err << prog << ": config '" << cfg.id << "': trials x --scale = " << cfg.trials
          << " must be <= 2^53 (values are recorded as JSON numbers)\n";
      return std::nullopt;
    }
    if (seed_override != 0) cfg.seed = seed_override;
  }
  return spec;
}

void report_stale_snapshots(const std::vector<Json>& snapshots,
                            const std::vector<std::string>& names, const char* prog,
                            std::ostream& err) {
  constexpr double kStaleSeconds = 3600.0;  // an hour of skew is suspicious
  std::vector<double> written(snapshots.size(), -1.0);
  double newest = -1.0;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const Json* v = snapshots[i].find("written_at");
    if (v != nullptr && v->is_number() && v->as_number() > 0.0) {
      written[i] = v->as_number();
      newest = std::max(newest, written[i]);
    }
  }
  if (newest < 0.0) return;  // no snapshot carries the stamp
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (written[i] < 0.0) continue;
    const double lag = newest - written[i];
    if (lag <= kStaleSeconds) continue;
    const std::string name = i < names.size() ? names[i] : "shard " + std::to_string(i + 1);
    err << prog << ": warning: snapshot '" << name << "' was written "
        << static_cast<long long>(std::llround(lag / 60.0)) << " min before the newest shard"
        << " (stale shard? re-run it if the spec or binary changed since)\n";
  }
}

}  // namespace rumor::sim
