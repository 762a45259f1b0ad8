// rumor/stats: mergeable streaming accumulator for spread curves (PR 9).
//
// A campaign trial instrumented with a core::SpreadProbe yields an
// informed-count curve — |informed| per synchronous round, or per fixed
// time bucket for the asynchronous engines. CurveAccumulator reduces those
// per-trial curves across a campaign the same way StreamingSummary reduces
// scalar spreading times: per grid point it keeps exact Welford moments and
// a deterministic quantile sketch, advances with one add() per trial, and
// combines with one merge() per block partial. Shorter curves are extended
// with their final value (the informed count is absorbing: once everyone
// knows, everyone keeps knowing), so every trial contributes to every grid
// point and the grid-point statistics are over the full trial count.
//
// Determinism contract (same as streaming.hpp): every operation is a pure
// function of the added curves and their order; campaigns add trials in
// trial order within a block and merge block partials in block-index order,
// so curve statistics are bit-identical across thread counts, block sizes,
// and checkpoint/resume/shard/merge flows. state()/restored() round-trip
// bit-exactly for the checkpoint layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "stats/streaming.hpp"
#include "stats/summary.hpp"

namespace rumor::stats {

/// Campaign-level call-efficiency totals: the per-trial SpreadProbe
/// counters plus the trial's tick count and final informed count, summed
/// exactly (all integers, field-wise addition — merge order is irrelevant).
/// The conservation invariant tools/spread_report.py checks:
///   useful_push + useful_pull == informed_total - trials * |sources|.
struct ContactTotals {
  std::uint64_t contacts = 0;
  std::uint64_t useful_push = 0;
  std::uint64_t useful_pull = 0;
  std::uint64_t wasted_push = 0;
  std::uint64_t wasted_pull = 0;
  std::uint64_t empty_contacts = 0;
  /// Sum of result.rounds (round grids) or result.steps (time grids).
  std::uint64_t ticks = 0;
  /// Sum of the final informed counts (== trials * n for completed runs).
  std::uint64_t informed_total = 0;

  void merge(const ContactTotals& other) noexcept {
    contacts += other.contacts;
    useful_push += other.useful_push;
    useful_pull += other.useful_pull;
    wasted_push += other.wasted_push;
    wasted_pull += other.wasted_pull;
    empty_contacts += other.empty_contacts;
    ticks += other.ticks;
    informed_total += other.informed_total;
  }

  /// The one JSON rendering of the totals: the checkpoint's curve partials
  /// and the report's stats.curves.contacts block. from_json() reads it back
  /// and throws std::runtime_error("<ctx>: ...") naming the first bad key.
  [[nodiscard]] json::Json to_json() const;
  [[nodiscard]] static ContactTotals from_json(const json::Json& o, const std::string& ctx);
};

/// Streaming reduction of informed-count curves at a fixed grid: per grid
/// point, exact moments plus a quantile sketch over the per-trial values.
class CurveAccumulator {
 public:
  struct Options {
    /// Grid length. Point k is round k (round grids) or time k * bucket
    /// (time grids); the accumulator itself is unit-agnostic.
    std::size_t points = 0;
    std::size_t sketch_capacity = 256;
  };

  CurveAccumulator() : CurveAccumulator(Options{}) {}
  explicit CurveAccumulator(const Options& options);

  /// Folds one trial's native curve (length >= 1) into the grid: point k
  /// takes curve[min(k, len - 1)] — curves shorter than the grid repeat
  /// their final (absorbing) value, longer ones are cut at the grid end
  /// but still recorded in max_len().
  void add(const std::vector<double>& curve) { add(curve, curve.size()); }
  /// add() for a native curve of `native_len` entries given by its first
  /// min(native_len, points()) or more, so a curve longer than the grid
  /// need not be built past it.
  void add(const std::vector<double>& curve, std::uint64_t native_len);

  /// Merges another accumulator over the same grid. Merging an empty
  /// operand is an exact identity; merging *into* an empty accumulator
  /// adopts the other verbatim (grid included) — the same empty-state
  /// contract as QuantileSketch/ReservoirSample, required for shards that
  /// own zero blocks of a configuration. Throws std::invalid_argument when
  /// both sides are non-empty with different grid lengths.
  void merge(const CurveAccumulator& other);

  /// Exact serializable state (campaign checkpoints); moments and sketches
  /// are indexed by grid point.
  struct State {
    std::uint64_t trials = 0;
    std::uint64_t max_len = 0;
    std::vector<RunningMoments::State> moments;
    std::vector<QuantileSketch::State> sketches;

    /// The checkpoint codec: to_json() renders the state, from_json()
    /// reads it back bit-exactly and throws std::runtime_error("<ctx>: ...")
    /// naming the first key that is missing or out of range.
    [[nodiscard]] json::Json to_json() const;
    [[nodiscard]] static State from_json(const json::Json& o, const std::string& ctx);
  };

  [[nodiscard]] State state() const;
  /// Rebuilds a bit-identical accumulator from state() given the Options
  /// the original was constructed with. Throws std::invalid_argument when
  /// the state's grid length disagrees with options.points.
  [[nodiscard]] static CurveAccumulator restored(const Options& options, const State& s);

  [[nodiscard]] std::size_t points() const noexcept { return moments_.size(); }
  [[nodiscard]] std::uint64_t trials() const noexcept { return trials_; }
  /// Longest native curve seen (max over trials; merged by max). For round
  /// grids this is rounds_max + 1, tying the curve back to the recorded
  /// spreading-time maximum exactly.
  [[nodiscard]] std::uint64_t max_len() const noexcept { return max_len_; }

  [[nodiscard]] const RunningMoments& moments_at(std::size_t k) const { return moments_[k]; }
  [[nodiscard]] double mean_at(std::size_t k) const { return moments_[k].mean(); }
  [[nodiscard]] double stddev_at(std::size_t k) const { return moments_[k].stddev(); }
  [[nodiscard]] double quantile_at(std::size_t k, double q) const {
    return sketches_[k].quantile(q);
  }

 private:
  std::size_t sketch_capacity_;
  std::uint64_t trials_ = 0;
  std::uint64_t max_len_ = 0;
  std::vector<RunningMoments> moments_;
  std::vector<QuantileSketch> sketches_;
};

}  // namespace rumor::stats
