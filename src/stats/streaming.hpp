// rumor/stats: mergeable accumulators for campaign sweeps.
//
// Worker threads accumulate block-local partials and the campaign combines
// them, so every reduction here is *mergeable*:
//
//   * RunningMoments (summary.hpp) — exact mean/variance/min/max, merged
//     with Chan et al.'s parallel combination;
//   * StreamingSummary — the campaign's per-configuration summary: exact
//     moments plus every trial value in merge order, so its quantiles (the
//     paper's T_q included) are exact order statistics;
//   * ReservoirSample — a bottom-k priority sample (uniform without
//     replacement) whose *contents are independent of insertion and merge
//     order*; it bounds the bootstrap CI's cost;
//   * QuantileSketch — a deterministic KLL-style compactor sketch, kept for
//     the per-grid-point curve distributions (stats/curves.hpp), where
//     points x trials values would not fit.
//
// Determinism contract: every operation here is a pure function of the
// inserted (value, tag) multiset and, for QuantileSketch and the summary's
// value list, of the insertion order. Campaigns therefore merge block
// partials in block-index order (see sim/campaign.cpp), making summaries
// bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "stats/summary.hpp"

namespace rumor::stats {

/// Mergeable epsilon-approximate quantile sketch (deterministic KLL-style
/// compactor hierarchy).
///
/// Level L holds items of weight 2^L in a buffer of capacity k. Growing a
/// level beyond k sorts it and promotes every second item (alternating
/// between odd and even positions on successive compactions, the classic
/// derandomized compactor) to level L+1, halving the item count. Memory is
/// O(k log(n/k)); the worst-case rank error of quantile() is bounded by
/// (log2(n/k) + 1)^2 / (2k) * n. With the default k = 256 and n = 1e6
/// samples that bound is about 33% of n, far above what occurs: measured
/// errors on Exp(1) samples (n = 2e4 to 3.3e5) were about 0.25-0.3% of n.
/// The error is a fraction of *all* n samples, so a tail quantile of mass
/// close to 1/n can be far off (tolerances are pinned down in
/// tests/test_streaming.cpp).
///
/// merge() concatenates level-wise and re-compacts, so a merge tree applied
/// in a fixed order yields a bit-deterministic result.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t capacity_per_level = 256);

  void add(double x);
  /// Concatenates level-wise and re-compacts. Merging an *empty* sketch is
  /// an exact identity (no level-vector growth, no state change); merging
  /// *into* an empty sketch copies the other verbatim (adopting its
  /// capacity) — both are required for checkpoint/shard bit-determinism.
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Total buffered items across levels (the memory footprint).
  [[nodiscard]] std::size_t stored() const noexcept;

  /// Approximate type-1 quantile: the smallest retained value whose
  /// cumulative weight reaches ceil(q * count). An empty sketch (count()
  /// == 0) has no quantiles and returns NaN — the documented empty-state
  /// contract (shards may own zero blocks of a configuration).
  [[nodiscard]] double quantile(double q) const;

  /// Exact serializable state (campaign checkpoints). Level-0 item *order*
  /// and the per-level keep_odd selectors are part of the state: both feed
  /// future compactions, so dropping either would break the bit-identity of
  /// a resumed campaign.
  struct LevelState {
    std::vector<double> items;
    bool keep_odd = false;
  };
  struct State {
    std::uint64_t count = 0;
    std::vector<LevelState> levels;

    /// The checkpoint codec: to_json() renders the state, from_json()
    /// reads it back bit-exactly and throws std::runtime_error("<ctx>: ...")
    /// naming the first key that is missing or out of range.
    [[nodiscard]] json::Json to_json() const;
    [[nodiscard]] static State from_json(const json::Json& o, const std::string& ctx);
  };

  [[nodiscard]] State state() const;
  /// Restores a snapshot taken with state(); bit-exact. Keeps the sketch's
  /// own capacity (the checkpoint layer validates capacities match).
  void restore(const State& s);

 private:
  struct Level {
    std::vector<double> items;  // unsorted at level 0; sorted above
    bool keep_odd = false;      // alternating compaction selector
  };

  void compact(std::size_t level);
  Level& level_at(std::size_t level);

  std::size_t k_;
  std::vector<Level> levels_;
  std::uint64_t count_ = 0;
};

/// Bounded uniform sample by bottom-k priority sampling.
///
/// Each inserted value carries a caller-supplied 64-bit `tag` (the campaign
/// uses the global trial index, unique per configuration); its priority is
/// a SplitMix64 hash of (salt, tag). The reservoir keeps the k pairs with
/// the smallest priorities — a uniform sample without replacement whose
/// contents depend only on the inserted (tag, value) set, never on
/// insertion order, thread interleaving, or merge shape. With capacity >=
/// the number of insertions it retains everything.
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t capacity, std::uint64_t salt = 0);

  void add(double value, std::uint64_t tag);
  /// Keeps the bottom-k of the union. Merging an *empty* reservoir is an
  /// exact identity — in particular an empty operand's capacity does not
  /// shrink this reservoir — and merging *into* an empty reservoir copies
  /// the other verbatim (capacity and salt included).
  void merge(const ReservoirSample& other);

  /// Exact serializable state: the retained (tag, value) pairs in tag order
  /// (the canonical form — priorities are recomputed from the salt on
  /// restore) plus the total insertion count, which restore() cannot infer
  /// once the stream exceeded capacity.
  struct State {
    std::uint64_t count = 0;
    std::vector<std::pair<std::uint64_t, double>> entries;

    /// The checkpoint codec: to_json() renders the state, from_json()
    /// reads it back bit-exactly and throws std::runtime_error("<ctx>: ...")
    /// naming the first key that is missing or out of range.
    [[nodiscard]] json::Json to_json() const;
    [[nodiscard]] static State from_json(const json::Json& o, const std::string& ctx);
  };

  [[nodiscard]] State state() const;
  /// Restores a snapshot taken with state(). The retained *set* is
  /// bit-exact; every observable output (values()/entries()/merges) is
  /// unchanged. Keeps this reservoir's capacity and salt.
  void restore(const State& s);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Retained values, ordered by tag (deterministic).
  [[nodiscard]] std::vector<double> values() const;
  /// Retained (tag, value) pairs, ordered by tag.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> entries() const;

 private:
  struct Entry {
    std::uint64_t priority;
    std::uint64_t tag;
    double value;
  };

  /// Strict total order (priority, tag, value); "the k smallest" under it
  /// is a well-defined set, the basis of the order-independence guarantee.
  static bool entry_less(const Entry& a, const Entry& b) noexcept;

  void insert(const Entry& e);
  void shrink_to_capacity();

  std::size_t capacity_;
  std::uint64_t salt_;
  std::uint64_t count_ = 0;
  /// Plain append buffer while below capacity; a max-heap under entry_less
  /// from the moment it fills, so a full reservoir rejects the common
  /// above-threshold insertion in O(1) and replaces in O(log k).
  std::vector<Entry> entries_;
};

/// The campaign's per-configuration reduction: exact moments, every trial
/// value in merge order, and a bounded reservoir for the bootstrap CI, all
/// advancing in one add() and combining in one merge(). Quantiles are exact
/// order statistics under stats::quantile_sorted, the rule
/// SpreadingTimeSample uses too.
class StreamingSummary {
 public:
  struct Options {
    std::size_t reservoir_capacity = 512;
    std::uint64_t reservoir_salt = 0;
  };

  StreamingSummary() : StreamingSummary(Options{}) {}
  explicit StreamingSummary(const Options& options);

  void add(double value, std::uint64_t tag);
  /// Appends other's values after this summary's own.
  void merge(const StreamingSummary& other);

  /// Exact serializable state of the summary (campaign checkpoints).
  /// restored() rebuilds a bit-identical summary given the same Options the
  /// original was constructed with.
  struct State {
    RunningMoments::State moments;
    std::vector<double> values;
    ReservoirSample::State reservoir;

    /// The checkpoint codec: to_json() renders the state, from_json()
    /// reads it back bit-exactly and throws std::runtime_error("<ctx>: ...")
    /// naming the first key that is missing or out of range, or `values`
    /// when it holds a non-number or not exactly moments.count entries.
    [[nodiscard]] json::Json to_json() const;
    [[nodiscard]] static State from_json(const json::Json& o, const std::string& ctx);
  };

  [[nodiscard]] State state() const {
    return State{moments_.state(), values_, reservoir_.state()};
  }
  [[nodiscard]] static StreamingSummary restored(const Options& options, const State& s);

  [[nodiscard]] const RunningMoments& moments() const noexcept { return moments_; }
  [[nodiscard]] const ReservoirSample& reservoir() const noexcept { return reservoir_; }
  /// Every added value, in insertion and merge order (a campaign's trial
  /// order, since it merges block partials in slot order).
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  [[nodiscard]] std::uint64_t count() const noexcept { return moments_.count(); }
  [[nodiscard]] double mean() const noexcept { return moments_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return moments_.stddev(); }
  [[nodiscard]] double stderr_mean() const noexcept { return moments_.stderr_mean(); }
  [[nodiscard]] double min() const noexcept { return moments_.min(); }
  [[nodiscard]] double max() const noexcept { return moments_.max(); }
  /// stats::quantile_sorted over a sorted copy of values(); NaN when empty
  /// (shards may own zero blocks of a configuration).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// The paper's T_q = quantile(1 - q) (cf. SpreadingTimeSample::hp_time).
  [[nodiscard]] double hp_time(double q) const { return quantile(1.0 - q); }

  /// Percentile-bootstrap CI for the mean, resampling the reservoir (the
  /// reservoir is itself a uniform subsample, so the interval is computed
  /// over min(capacity, count) points; with capacity >= count it coincides
  /// with the exact-sample bootstrap of SpreadingTimeSample::mean_ci).
  [[nodiscard]] BootstrapInterval mean_ci(double confidence = 0.95,
                                          std::size_t resamples = 400,
                                          std::uint64_t seed = 7) const;

 private:
  RunningMoments moments_;
  std::vector<double> values_;
  ReservoirSample reservoir_;
};

}  // namespace rumor::stats
