// rumor/sim: crash-safe checkpoints, deterministic sharding, and the
// bit-identical merge layer for campaigns.
//
// A campaign reduces every configuration to mergeable accumulators whose
// block partials land in fixed slots (sim/campaign.cpp). This module
// persists that progress: a *snapshot* is a versioned JSON document holding
// each configuration's completed block partials (exact serialized
// accumulator state), its race phase (candidates / finalists), or its final
// result. Every campaign run records its progress, whether or not it
// writes; the same document serves three flows:
//
//   * checkpoint / resume — a run given a checkpoint file writes snapshots
//     periodically from a background writer thread, and once more at the
//     end (atomic temp + fsync + rename); run_campaign_resumable resumes
//     from one, and a resumed campaign
//     re-runs only the missing blocks (or, when a pass's every block was
//     recorded but its hand-off was not, its last block, to re-trigger the
//     fold) and produces a final report bit-identical to an uninterrupted
//     run at any thread count;
//   * sharding — `--shard i/k` partitions the block space by a stable hash
//     of (config id, slot), independent of thread count and enqueue order
//     (race configurations hash by config id alone, so every successor
//     block of a plan block lands on the same shard), and emits a finished
//     partial snapshot;
//   * merge — merge_campaign_snapshots folds k partial snapshots into the
//     final results, validating format/version, spec hash, shard coverage
//     and overlap first; the merged reports are bit-identical to the
//     unsharded run's.
//
// Bit-identity rests on two facts: accumulator serialization round-trips
// exactly (stats/streaming.hpp state() / restored(), each State's JSON codec
// beside it in src/stats, doubles rendered by json/json.cpp's formatter,
// which widens `%.15g` to 16 and 17 digits until the text parses back to
// the same double), and partials
// are always folded in slot order by one fold (fold_slots below), so a
// resumed or merged fold performs the same merge sequence on bit-identical
// operands.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace rumor::sim {

/// Snapshot document identification. `version` bumps on any schema change;
/// loaders reject versions they do not understand.
inline constexpr const char* kSnapshotFormat = "rumor-campaign-checkpoint";
inline constexpr int kSnapshotVersion = 1;

/// Stable fingerprint of (campaign name, fully-resolved configurations) —
/// FNV-1a over a canonical rendering of every parameter that affects
/// results. Recorded in every snapshot as `spec_hash`; resume and merge
/// refuse snapshots whose hash does not match the spec they are given
/// (including CLI --trials/--seed/--scale overrides, which must be repeated
/// verbatim).
[[nodiscard]] std::string campaign_fingerprint(const std::string& campaign_name,
                                               const std::vector<CampaignConfig>& configs);

/// The shard partition rule: which 0-based shard owns block `slot` of the
/// configuration `config_id`. Race configurations pass whole_config = true
/// and are owned wholesale by one shard (their screen/refine successor
/// blocks must follow their plan block). Pure function of its arguments —
/// never of thread count, enqueue order, or completion order.
[[nodiscard]] std::uint32_t shard_of_block(const std::string& config_id, std::size_t slot,
                                           bool whole_config, std::uint32_t shard_count);

/// The configuration id run_campaign reports: cfg.id, or "cfg<index>" when
/// the spec left it empty.
[[nodiscard]] std::string resolved_config_id(const CampaignConfig& cfg, std::size_t index);

/// How many block slots `trials` trials fill at `block_size` (the last one
/// may be short). One definition for the scheduler, resume and merge.
[[nodiscard]] constexpr std::size_t slot_count(std::uint64_t trials,
                                               std::uint64_t block_size) noexcept {
  return static_cast<std::size_t>((trials + block_size - 1) / block_size);
}

/// What run_campaign_resumable returns beyond the plain result vector.
struct CampaignOutcome {
  /// Ordered like the input configs. Configurations whose blocks this run
  /// did not finish (stopped early, or owned by other shards) carry only
  /// their metadata skeleton — their progress lives in `snapshot`.
  std::vector<CampaignResult> results;
  /// False when the run stopped early (CampaignOptions::stop_after_blocks).
  bool complete = true;
  /// Blocks completed by this run, including restored progress from resume.
  std::uint64_t blocks_done = 0;
  /// The final snapshot document (checkpoint / shard partial), built after
  /// the final write under its header, so it dumps to the checkpoint file's
  /// bytes. Filled when run_campaign_resumable is asked for it (the
  /// default): perf_replay and the checkpoint tests read it, and rumor_bench
  /// prints it for a shard. Null otherwise, and from run_campaign.
  Json snapshot;
};

/// run_campaign under a campaign name, with resume and the snapshot
/// document. `resume` is a parsed snapshot document (nullptr = fresh
/// start); it is validated against the configs, options, and campaign name
/// before any work is scheduled, and a mismatch throws std::runtime_error
/// naming the field. The determinism contract of run_campaign extends
/// across interruptions: a resumed campaign's final report is
/// bit-identical to an uninterrupted run at any thread count. Without
/// `snapshot` the outcome's snapshot stays null, so a caller that prints
/// reports does not build a document nobody reads; the writes are the same.
[[nodiscard]] CampaignOutcome run_campaign_resumable(const std::vector<CampaignConfig>& configs,
                                                     const CampaignOptions& options,
                                                     const std::string& campaign_name,
                                                     const Json* resume = nullptr,
                                                     bool snapshot = true);

/// The block size and shard designator a snapshot's header records, which
/// `--resume` adopts unless the flags are repeated. Read by the loader's
/// checked header reader: format and version first, then every header key
/// as a non-negative integer, and the shard fields as 32-bit values. Throws
/// std::runtime_error naming the key and the file's value.
struct SnapshotLayout {
  std::uint64_t block_size = 0;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
};
[[nodiscard]] SnapshotLayout snapshot_layout(const Json& snapshot);

/// Folds k finished shard snapshots into the campaign's final results,
/// bit-identical to the unsharded run. Validates before merging, throwing
/// std::runtime_error on: format/version mismatch, campaign name or spec
/// hash mismatch, block size or capacity disagreement between snapshots,
/// wrong shard count, duplicate or missing shard indices, an unfinished
/// shard, an entry resume would refuse too (entries are read by the one
/// decoder load() uses: a slot outside the config's block grid, a curve
/// partial on a config without curves), a coverage gap (a block slot no
/// shard recorded, or a race no shard finished), an overlap (a slot or race
/// result recorded by two shards, or a final result beside another shard's
/// slots), a race a finished shard left mid-way, or shards disagreeing on a
/// graph — each error names the configuration and slot/shards involved.
[[nodiscard]] std::vector<CampaignResult> merge_campaign_snapshots(
    const std::vector<CampaignConfig>& configs, const std::string& campaign_name,
    const std::vector<Json>& snapshots);

/// The streaming-summary options a campaign gives configuration `cfg`
/// (per-config reservoir override, reservoir salted by the config seed).
/// One definition shared by the scheduler and the merge tool, so restored
/// summaries are always rebuilt with the exact construction parameters.
[[nodiscard]] stats::StreamingSummary::Options summary_options_for(
    const CampaignConfig& cfg, std::size_t sketch_capacity, std::size_t reservoir_capacity);

/// The curve-accumulator options a campaign gives configuration `cfg`
/// (grid length from the config's curve spec, sketch capacity shared with
/// the scalar summaries). Like summary_options_for, one definition shared
/// by the scheduler and the merge tool so restored curve partials are
/// always rebuilt with the exact construction parameters.
[[nodiscard]] stats::CurveAccumulator::Options curve_options_for(const CampaignConfig& cfg,
                                                                 std::size_t sketch_capacity);

/// Loads a campaign spec file and applies the rumor_bench CLI override
/// semantics (--trials replaces every trial count, --scale multiplies the
/// spec's own counts otherwise, --seed replaces every root seed). Shared by
/// rumor_bench's run and --merge paths so both resolve identical configs —
/// a prerequisite for spec-hash validation. Returns nullopt after printing
/// a `prog`-prefixed diagnostic to `err`.
[[nodiscard]] std::optional<CampaignSpec> load_campaign_spec_file(const std::string& path,
                                                                  std::uint64_t trials_override,
                                                                  std::uint64_t seed_override,
                                                                  unsigned scale, const char* prog,
                                                                  std::ostream& err);

/// Stale-shard advisory for merge flows: snapshots carry an optional
/// `written_at` wall-clock stamp (unix seconds, recorded on every
/// checkpoint write); when the shards handed to a merge were written more
/// than an hour apart, each laggard gets a `prog`-prefixed warning on `err`
/// naming its file (`names` parallels `snapshots`). Advisory only — byte
/// determinism makes mixing old and new shards safe when the spec really is
/// unchanged, and the spec-hash check still rejects true mismatches — and
/// snapshots without the stamp (pre-dating it) are silently tolerated.
void report_stale_snapshots(const std::vector<Json>& snapshots,
                            const std::vector<std::string>& names, const char* prog,
                            std::ostream& err);

/// Thread-safe campaign progress store: the machinery behind snapshots.
/// Every campaign run builds one, plain or checkpointed, sharded or
/// resumed; a run without a checkpoint file never starts the writer thread
/// and never writes. Declared here only so the scheduler (campaign.cpp)
/// and the snapshot codec (checkpoint.cpp) can share it; not part of the
/// stable API surface.
///
/// The store is typed: one Entry per configuration holding the accumulator
/// states themselves, so a worker's record_* call copies a State under the
/// store mutex and never builds JSON. Only the checkpoint writer turns
/// entries into JSON, and only the configs recorded since its previous
/// write, outside the store mutex. Every snapshot entry is encoded and
/// decoded by one codec pair in checkpoint.cpp, shared by the writes,
/// load() and merge_campaign_snapshots.
class CampaignRecorder {
 public:
  /// One configuration's progress: the store's value type and what load()
  /// hands the scheduler, which restores its passes' slots from it and
  /// re-enqueues the missing blocks.
  struct Entry {
    enum class Phase : std::uint8_t { kPending, kTrials, kScreen, kRefine, kDone };
    /// A curve partial with its contact totals (curves-enabled configs).
    struct Curves {
      stats::CurveAccumulator::State state;
      stats::ContactTotals contacts;
    };
    /// One trial block's partial; every slot of a curves-enabled config
    /// carries its curve partial, no slot of another config does.
    struct Slot {
      stats::StreamingSummary::State summary;
      std::optional<Curves> curves;
    };
    using RaceSlot = std::pair<std::uint32_t, std::size_t>;  // (entrant, slot)

    Phase phase = Phase::kPending;
    /// The built graph's identity: recorded once the graph is built, and
    /// part of the final result at kDone.
    bool has_graph = false;
    std::string graph_name;
    std::uint64_t n = 0;
    std::map<std::size_t, Slot> slots;                               // kTrials
    std::vector<graph::NodeId> candidates;                           // kScreen
    std::map<RaceSlot, stats::RunningMoments::State> screen;         // kScreen
    std::vector<graph::NodeId> finalists;                            // kRefine
    std::map<RaceSlot, stats::StreamingSummary::State> refine;       // kRefine
    // kDone only: the final result.
    graph::NodeId source = 0;
    graph::NodeId best_source = 0;
    double best_mean = 0.0;
    stats::StreamingSummary::State summary;
    std::optional<Curves> curves;
  };

  CampaignRecorder(const std::vector<CampaignConfig>& configs, const CampaignOptions& options,
                   std::string campaign_name);
  /// Stops the background writer (if it ever started) without rethrowing
  /// its error; a write in flight finishes first, a pending one is dropped.
  ~CampaignRecorder();
  CampaignRecorder(const CampaignRecorder&) = delete;
  CampaignRecorder& operator=(const CampaignRecorder&) = delete;

  /// Validates `snapshot` against the configs/options/name and adopts it as
  /// the starting state (subsequent snapshots re-emit the restored
  /// progress). Returns per-config restored progress, indexed like configs.
  /// Throws std::runtime_error naming the first mismatch.
  [[nodiscard]] std::vector<Entry> load(const Json& snapshot);

  // Worker-side recording. All thread-safe; each call copies the partial's
  // exact state into the store under the store mutex.
  void record_graph(std::size_t config, const std::string& graph_name, std::uint64_t n);
  void record_trial_slot(std::size_t config, std::size_t slot,
                         const stats::StreamingSummary& partial,
                         const stats::CurveAccumulator* curves = nullptr,
                         const stats::ContactTotals* contacts = nullptr);
  void record_plan(std::size_t config, const std::vector<graph::NodeId>& candidates);
  void record_screen_slot(std::size_t config, std::uint32_t entrant, std::size_t slot,
                          const stats::RunningMoments& partial);
  void record_finalists(std::size_t config, const std::vector<graph::NodeId>& finalists);
  void record_refine_slot(std::size_t config, std::uint32_t entrant, std::size_t slot,
                          const stats::StreamingSummary& partial);
  void record_done(std::size_t config, const CampaignResult& result);

  /// Called by a worker after each completed block: advances the block
  /// counter and returns true when the stop_after_blocks budget is
  /// exhausted (the caller then drains the queue). It never writes: when a
  /// periodic checkpoint is due it flags one for the background writer
  /// thread (started on the first due write) and returns at once. Throws
  /// the writer's std::runtime_error, naming the file, once a background
  /// write has failed (a campaign that cannot persist progress should fail
  /// loudly).
  [[nodiscard]] bool block_finished();

  /// Stops and joins the background writer, dropping a request it has not
  /// started, and rethrows its write error if it had one. Called once the
  /// workers are done and before finish(), whose write is then the last.
  /// A no-op when no periodic write was ever due.
  void drain_writes();

  /// Serializes the full snapshot document. `finished` marks a snapshot
  /// whose owned work is complete — what merge requires of shard partials.
  [[nodiscard]] Json snapshot(bool finished) const;

  /// Writes snapshot(finished) to the options' checkpoint_file through the
  /// durable atomic-rename path: the same bytes as snapshot(finished).dump(2)
  /// plus a newline, but only configs recorded since the previous write are
  /// turned into JSON and re-rendered. Throws std::runtime_error on failure.
  void write_checkpoint(bool finished);

  /// Ends a recorded run, after drain_writes(): makes the final write when
  /// the options name a checkpoint file. With `snapshot` it then releases
  /// the rendered text the writes cached and builds the final snapshot
  /// document, once, under the header that write used — so the file and the
  /// returned document are the same bytes, written_at included. Without
  /// `snapshot` it returns a null Json.
  [[nodiscard]] Json finish(bool finished, bool snapshot);

  [[nodiscard]] std::uint64_t blocks_done() const;

 private:
  /// The snapshot document minus its `configs` array. Caller holds mutex_.
  [[nodiscard]] Json snapshot_header(bool finished) const;
  /// The `configs` array, encoded from the whole store. Caller holds mutex_.
  [[nodiscard]] Json configs_json() const;
  /// Writes the snapshot, re-rendering only the dirty entries, and returns
  /// the header it wrote. The file is gathered from the header's text, the
  /// cached fragments and the separators between them (write_file_atomic's
  /// parts form), so no copy of the whole document is made. Caller holds
  /// write_mutex_.
  Json write_locked(bool finished);
  /// The background writer: waits for a request, writes, repeats until
  /// stopped or a write fails.
  void writer_loop();
  /// Asks the writer to stop and joins it. Leaves write_error_ in place.
  void stop_writer() noexcept;

  const std::vector<CampaignConfig>& configs_;
  CampaignOptions options_;
  std::string campaign_name_;
  std::string spec_hash_;
  mutable std::mutex mutex_;
  /// Serializes checkpoint writes (the writer thread's and direct calls):
  /// concurrent writers would share one pid-derived temp file and tear it.
  /// Separate from mutex_ so workers keep recording while a snapshot is on
  /// its way to disk.
  mutable std::mutex write_mutex_;
  std::vector<Entry> store_;
  /// Per config: recorded (by a record_* call or load()) since the last
  /// write re-rendered its fragment.
  std::vector<char> dirty_;
  /// Owned by write_mutex_: each config's entry as rendered by the last
  /// write, at its depth in the document — configs[c] of dump(2).
  std::vector<std::string> fragments_;
  std::uint64_t blocks_done_ = 0;    // total, including progress restored by load()
  std::uint64_t session_blocks_ = 0; // completed by this process (drives the
                                     // checkpoint cadence and the stop budget)
  // Background writer state, owned by mutex_. write_pending_ collapses
  // every request made while a write is in flight into one more write.
  std::condition_variable writer_cv_;
  bool write_pending_ = false;
  bool writer_stop_ = false;
  std::exception_ptr write_error_;
  std::thread writer_;
};

/// One trial block's partial as a campaign holds it: the summary, plus the
/// curve and contact partials of a curves-enabled configuration. Internal,
/// like CampaignRecorder: the scheduler's trials and refine passes and
/// merge_campaign_snapshots build, restore and fold partials through it.
struct TrialPartial {
  stats::StreamingSummary summary;
  std::optional<stats::CurveAccumulator> curves;  // cfg.curves.enabled only
  stats::ContactTotals contacts;

  TrialPartial() = default;
  /// An empty partial built with the options a campaign gives `cfg`
  /// (summary_options_for, curve_options_for).
  TrialPartial(const CampaignConfig& cfg, std::size_t sketch_capacity,
               std::size_t reservoir_capacity);
  /// A recorded partial, rebuilt with those same construction options.
  [[nodiscard]] static TrialPartial restored(
      const CampaignConfig& cfg, std::size_t sketch_capacity, std::size_t reservoir_capacity,
      const stats::StreamingSummary::State& summary,
      const std::optional<CampaignRecorder::Entry::Curves>& curves);

  void merge(const TrialPartial& other);
  /// Moves the summary, and the curves and contacts when present, into `r`.
  void move_into(CampaignResult& r) &&;
};

/// Folds one entrant's slot partials in slot order: the first is moved,
/// each later one merged into it. The one reduction behind every campaign
/// pass and merge_campaign_snapshots, so a resumed or merged fold performs
/// the scheduler's merge sequence on bit-identical operands.
template <class Partial>
[[nodiscard]] Partial fold_slots(std::vector<Partial>& slots) {
  Partial total = std::move(slots.front());
  for (std::size_t s = 1; s < slots.size(); ++s) total.merge(slots[s]);
  return total;
}

/// Restores a finished configuration's `done` entry into `r`: graph
/// identity, sources, best mean, summary and curves. Shared by resume and
/// merge.
void restore_result(CampaignResult& r, const CampaignRecorder::Entry& done,
                    const CampaignConfig& cfg, std::size_t sketch_capacity,
                    std::size_t reservoir_capacity);

}  // namespace rumor::sim
