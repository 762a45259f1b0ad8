#include "stats/streaming.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rng/rng.hpp"

namespace rumor::stats {

// --- QuantileSketch ----------------------------------------------------------

QuantileSketch::QuantileSketch(std::size_t capacity_per_level)
    : k_(std::max<std::size_t>(capacity_per_level, 8)) {}

QuantileSketch::Level& QuantileSketch::level_at(std::size_t level) {
  if (level >= levels_.size()) levels_.resize(level + 1);
  return levels_[level];
}

void QuantileSketch::add(double x) {
  ++count_;
  level_at(0).items.push_back(x);
  // Compact only beyond capacity: a level may hold exactly k items, so
  // streams of up to k samples stay uncompacted (exact quantiles).
  if (levels_[0].items.size() > k_) compact(0);
}

void QuantileSketch::compact(std::size_t level) {
  // Sort, promote every second item of an even-sized prefix (each promoted
  // item doubles in weight, exactly representing the pair it came from); an
  // odd leftover item stays behind at its current weight so the sketch's
  // total stored weight always equals count(). The selector alternates
  // between even and odd positions on successive compactions so rank errors
  // cancel pairwise instead of accumulating with one sign.
  std::vector<double> promoted;
  {
    auto& lvl = level_at(level);
    std::sort(lvl.items.begin(), lvl.items.end());
    const std::size_t even = lvl.items.size() & ~std::size_t{1};
    promoted.reserve(even / 2);
    for (std::size_t i = lvl.keep_odd ? 1 : 0; i < even; i += 2) {
      promoted.push_back(lvl.items[i]);
    }
    lvl.keep_odd = !lvl.keep_odd;
    if (even < lvl.items.size()) {
      lvl.items.front() = lvl.items.back();
      lvl.items.resize(1);
    } else {
      lvl.items.clear();
    }
  }
  auto& next = level_at(level + 1);  // may reallocate levels_
  next.items.insert(next.items.end(), promoted.begin(), promoted.end());
  if (next.items.size() > k_) compact(level + 1);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  // Empty operands must be exact identities: without the early-outs a merge
  // with an empty sketch could still grow levels_ (a bit-state change that
  // a checkpoint would faithfully — and wrongly — persist).
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  count_ += other.count_;
  for (std::size_t level = 0; level < other.levels_.size(); ++level) {
    auto& mine = level_at(level);
    const auto& theirs = other.levels_[level].items;
    mine.items.insert(mine.items.end(), theirs.begin(), theirs.end());
  }
  // Re-establish the capacity invariant bottom-up; a compaction can push
  // the next level over capacity, which the cascade inside compact handles.
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].items.size() > k_) compact(level);
  }
}

std::size_t QuantileSketch::stored() const noexcept {
  std::size_t total = 0;
  for (const auto& lvl : levels_) total += lvl.items.size();
  return total;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<double, std::uint64_t>> weighted;  // (value, weight)
  weighted.reserve(stored());
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    const std::uint64_t weight = std::uint64_t{1} << level;
    for (double x : levels_[level].items) weighted.emplace_back(x, weight);
  }
  assert(!weighted.empty());
  std::sort(weighted.begin(), weighted.end());
  // Type-1 target rank, matching stats::quantile_sorted: the smallest value
  // whose cumulative weight reaches ceil(q * count).
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::uint64_t target = 1;
  if (clamped > 0.0) {
    const double pos = std::ceil(clamped * static_cast<double>(count_));
    target = pos < 1.0 ? 1 : static_cast<std::uint64_t>(pos);
    if (target > count_) target = count_;
  }
  std::uint64_t cumulative = 0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return weighted.back().first;
}

QuantileSketch::State QuantileSketch::state() const {
  State s;
  s.count = count_;
  s.levels.reserve(levels_.size());
  for (const Level& lvl : levels_) s.levels.push_back(LevelState{lvl.items, lvl.keep_odd});
  return s;
}

void QuantileSketch::restore(const State& s) {
  count_ = s.count;
  levels_.clear();
  levels_.reserve(s.levels.size());
  for (const LevelState& lvl : s.levels) levels_.push_back(Level{lvl.items, lvl.keep_odd});
}

// --- ReservoirSample ---------------------------------------------------------

namespace {

/// Order-independent priority: a SplitMix64 hash of (salt, tag). Strict
/// total order via (priority, tag, value) ties means "the k smallest" is a
/// well-defined set, so reservoir contents cannot depend on merge shape.
std::uint64_t priority_of(std::uint64_t salt, std::uint64_t tag) {
  rng::SplitMix64 sm(salt ^ (tag * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ca01d9e3ULL));
  return sm.next();
}

}  // namespace

ReservoirSample::ReservoirSample(std::size_t capacity, std::uint64_t salt)
    : capacity_(std::max<std::size_t>(capacity, 1)), salt_(salt) {}

bool ReservoirSample::entry_less(const Entry& a, const Entry& b) noexcept {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.tag != b.tag) return a.tag < b.tag;
  return a.value < b.value;
}

void ReservoirSample::add(double value, std::uint64_t tag) {
  ++count_;
  insert(Entry{priority_of(salt_, tag), tag, value});
}

void ReservoirSample::insert(const Entry& e) {
  if (entries_.size() < capacity_) {
    entries_.push_back(e);
    // Heap order is established exactly when the reservoir fills; below
    // capacity the vector is a plain append buffer.
    if (entries_.size() == capacity_) {
      std::make_heap(entries_.begin(), entries_.end(), entry_less);
    }
    return;
  }
  // Full: front() is the largest retained entry, so anything at or above
  // it — the overwhelmingly common case in a long stream — is rejected in
  // O(1); qualifying entries replace it in O(log k).
  if (!entry_less(e, entries_.front())) return;
  std::pop_heap(entries_.begin(), entries_.end(), entry_less);
  entries_.back() = e;
  std::push_heap(entries_.begin(), entries_.end(), entry_less);
}

void ReservoirSample::merge(const ReservoirSample& other) {
  // Exact-identity early-outs: an empty operand must not shrink this
  // reservoir's capacity, and merging into an empty reservoir adopts the
  // other verbatim (checkpoint/shard merges rely on both).
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  count_ += other.count_;
  if (other.capacity_ < capacity_) {
    capacity_ = other.capacity_;
    shrink_to_capacity();
  }
  for (const Entry& e : other.entries_) insert(e);
}

ReservoirSample::State ReservoirSample::state() const {
  State s;
  s.count = count_;
  s.entries = entries();  // tag-sorted: the canonical, layout-free form
  return s;
}

void ReservoirSample::restore(const State& s) {
  entries_.clear();
  for (const auto& [tag, value] : s.entries) insert(Entry{priority_of(salt_, tag), tag, value});
  count_ = s.count;
}

void ReservoirSample::shrink_to_capacity() {
  if (entries_.size() < capacity_) return;
  if (entries_.size() > capacity_) {
    std::nth_element(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(capacity_ - 1),
                     entries_.end(), entry_less);
    entries_.resize(capacity_);
  }
  std::make_heap(entries_.begin(), entries_.end(), entry_less);
}

std::vector<double> ReservoirSample::values() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [tag, value] : entries()) out.push_back(value);
  return out;
}

std::vector<std::pair<std::uint64_t, double>> ReservoirSample::entries() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.emplace_back(e.tag, e.value);
  std::sort(out.begin(), out.end());
  return out;
}

// --- StreamingSummary --------------------------------------------------------

StreamingSummary::StreamingSummary(const Options& options)
    : reservoir_(options.reservoir_capacity, options.reservoir_salt) {}

void StreamingSummary::add(double value, std::uint64_t tag) {
  moments_.add(value);
  values_.push_back(value);
  reservoir_.add(value, tag);
}

void StreamingSummary::merge(const StreamingSummary& other) {
  moments_.merge(other.moments_);
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  reservoir_.merge(other.reservoir_);
}

StreamingSummary StreamingSummary::restored(const Options& options, const State& s) {
  StreamingSummary out(options);
  out.moments_.restore(s.moments);
  out.values_ = s.values;
  out.reservoir_.restore(s.reservoir);
  return out;
}

double StreamingSummary::quantile(double q) const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

BootstrapInterval StreamingSummary::mean_ci(double confidence, std::size_t resamples,
                                            std::uint64_t seed) const {
  // Sorted by value, so that with reservoir capacity >= count this interval
  // is bit-identical to SpreadingTimeSample::mean_ci (which bootstraps the
  // sorted sample vector).
  std::vector<double> values = reservoir_.values();
  std::sort(values.begin(), values.end());
  return bootstrap_mean_ci(values, confidence, resamples, seed);
}

// --- Checkpoint codecs ----------------------------------------------------------

json::Json QuantileSketch::State::to_json() const {
  json::Json levels_json = json::Json::array();
  for (const LevelState& lvl : levels) {
    json::Json items = json::Json::array();
    for (const double x : lvl.items) items.push_back(x);
    json::Json level = json::Json::object();
    level.set("items", std::move(items));
    level.set("keep_odd", lvl.keep_odd);
    levels_json.push_back(std::move(level));
  }
  json::Json o = json::Json::object();
  o.set("count", count);
  o.set("levels", std::move(levels_json));
  return o;
}

QuantileSketch::State QuantileSketch::State::from_json(const json::Json& o,
                                                       const std::string& ctx) {
  State s;
  s.count = json::get<std::uint64_t>(o, "count", ctx);
  for (const json::Json& level : json::array_member(o, "levels", ctx)) {
    LevelState lvl;
    for (const json::Json& item : json::array_member(level, "items", ctx)) {
      if (!item.is_number()) throw std::runtime_error(ctx + ": sketch items must be numbers");
      lvl.items.push_back(item.as_number());
    }
    lvl.keep_odd = json::get<bool>(level, "keep_odd", ctx);
    s.levels.push_back(std::move(lvl));
  }
  return s;
}

json::Json ReservoirSample::State::to_json() const {
  json::Json pairs = json::Json::array();
  for (const auto& [tag, value] : entries) {
    json::Json pair = json::Json::array();
    pair.push_back(tag);
    pair.push_back(value);
    pairs.push_back(std::move(pair));
  }
  json::Json o = json::Json::object();
  o.set("count", count);
  o.set("entries", std::move(pairs));
  return o;
}

ReservoirSample::State ReservoirSample::State::from_json(const json::Json& o,
                                                         const std::string& ctx) {
  State s;
  s.count = json::get<std::uint64_t>(o, "count", ctx);
  for (const json::Json& pair : json::array_member(o, "entries", ctx)) {
    const std::vector<json::Json>& tv = pair.elements();
    if (!pair.is_array() || tv.size() != 2 || !tv[0].is_number() || !tv[1].is_number()) {
      throw std::runtime_error(ctx + ": reservoir entries must be [tag, value] number pairs");
    }
    std::uint64_t tag = 0;
    if (!json::read_uint("tag", tv[0], tag, std::numeric_limits<std::uint64_t>::max()).empty()) {
      throw std::runtime_error(ctx + ": reservoir tags must be non-negative integers");
    }
    s.entries.emplace_back(tag, tv[1].as_number());
  }
  return s;
}

json::Json StreamingSummary::State::to_json() const {
  json::Json o = json::Json::object();
  o.set("moments", moments.to_json());
  json::Json values_json = json::Json::array();
  for (const double x : values) values_json.push_back(x);
  o.set("values", std::move(values_json));
  o.set("reservoir", reservoir.to_json());
  return o;
}

StreamingSummary::State StreamingSummary::State::from_json(const json::Json& o,
                                                           const std::string& ctx) {
  State s;
  s.moments = RunningMoments::State::from_json(json::member(o, "moments", ctx), ctx);
  // One number per trial: anything else would desynchronize the quantiles
  // from the moments they are reported beside.
  const std::vector<json::Json>& values = json::array_member(o, "values", ctx);
  const auto refused = [&](const std::string& holds) {
    return std::runtime_error(
        ctx + ": " +
        json::must_be("values", "an array of moments.count = " +
                                    std::to_string(s.moments.count) + " numbers") +
        "; it holds " + holds);
  };
  if (values.size() != s.moments.count) throw refused(std::to_string(values.size()));
  s.values.reserve(values.size());
  for (const json::Json& x : values) {
    if (!x.is_number()) throw refused(x.dump());
    s.values.push_back(x.as_number());
  }
  s.reservoir = ReservoirSample::State::from_json(json::member(o, "reservoir", ctx), ctx);
  return s;
}

}  // namespace rumor::stats
