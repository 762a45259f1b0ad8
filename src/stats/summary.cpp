#include "stats/summary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "rng/rng.hpp"

namespace rumor::stats {

json::Json RunningMoments::State::to_json() const {
  json::Json o = json::Json::object();
  o.set("count", count);
  o.set("mean", mean);
  o.set("m2", m2);
  o.set("min", min);
  o.set("max", max);
  return o;
}

RunningMoments::State RunningMoments::State::from_json(const json::Json& o,
                                                       const std::string& ctx) {
  State s;
  s.count = json::get<std::uint64_t>(o, "count", ctx);
  s.mean = json::get<double>(o, "mean", ctx);
  s.m2 = json::get<double>(o, "m2", ctx);
  s.min = json::get<double>(o, "min", ctx);
  s.max = json::get<double>(o, "max", ctx);
  return s;
}

double RunningMoments::stddev() const noexcept { return std::sqrt(variance()); }

double RunningMoments::stderr_mean() const noexcept {
  return count_ > 1 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
}

void RunningMoments::merge(const RunningMoments& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile_sorted(std::span<const double> sorted_samples, double q) {
  assert(!sorted_samples.empty());
  assert(std::is_sorted(sorted_samples.begin(), sorted_samples.end()));
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::size_t n = sorted_samples.size();
  std::size_t k = 0;
  if (clamped > 0.0) {
    const double pos = std::ceil(clamped * static_cast<double>(n)) - 1.0;
    k = pos < 0.0 ? 0 : static_cast<std::size_t>(pos);
    if (k >= n) k = n - 1;
  }
  return sorted_samples[k];
}

namespace {

/// Every resample of an n-sample bootstrap draws its indices from the same
/// stream: resample r's i-th index is the (r·n + i)-th uniform_below(n)
/// draw on derive_stream(seed, 0xb007). So every bootstrap with the same
/// (seed, n, resamples) draws the same table, and campaign reports, which
/// all bootstrap with one seed from reservoirs of a few sizes, draw it once.
struct IndexTable {
  std::uint64_t seed = 0;
  std::size_t n = 0;
  std::size_t resamples = 0;
  std::vector<std::uint32_t> indices;  // resamples rows of n
};

/// The cache's bounds: a table is kept only up to the default reservoir
/// cap's 400 × 512 indices, and at most kTableSlots tables are kept (the
/// least recently used is dropped first).
constexpr std::size_t kMaxTableIndices = 400 * 512;
constexpr std::size_t kTableSlots = 4;

/// The (seed, n, resamples) table, drawn on a miss outside the lock; null
/// when it would exceed kMaxTableIndices.
std::shared_ptr<const IndexTable> index_table(std::uint64_t seed, std::size_t n,
                                              std::size_t resamples) {
  if (resamples > kMaxTableIndices / n) return nullptr;
  static std::mutex mutex;
  static std::vector<std::shared_ptr<const IndexTable>> tables;  // most recent last
  auto find = [&]() -> std::shared_ptr<const IndexTable> {
    for (auto it = tables.begin(); it != tables.end(); ++it) {
      const IndexTable& t = **it;
      if (t.seed != seed || t.n != n || t.resamples != resamples) continue;
      std::shared_ptr<const IndexTable> hit = *it;
      tables.erase(it);
      tables.push_back(hit);
      return hit;
    }
    return nullptr;
  };
  {
    const std::scoped_lock lock(mutex);
    if (auto hit = find()) return hit;
  }
  auto table = std::make_shared<IndexTable>();
  table->seed = seed;
  table->n = n;
  table->resamples = resamples;
  table->indices.resize(resamples * n);
  rng::Engine eng = rng::derive_stream(seed, 0xb007ULL);
  for (std::uint32_t& k : table->indices) {
    k = static_cast<std::uint32_t>(rng::uniform_below(eng, n));
  }
  const std::scoped_lock lock(mutex);
  if (auto hit = find()) return hit;  // another thread drew it meanwhile
  if (tables.size() == kTableSlots) tables.erase(tables.begin());
  tables.push_back(table);
  return table;
}

template <class Statistic>
BootstrapInterval bootstrap_ci(std::span<const double> samples, double confidence,
                               std::size_t resamples, std::uint64_t seed, Statistic stat) {
  if (samples.empty()) {
    // No samples -> no defined statistic. NaN (not 0) so downstream
    // consumers cannot mistake the empty state for a measured value.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return BootstrapInterval{nan, nan, nan};
  }
  assert(confidence > 0.0 && confidence < 1.0);
  const std::size_t n = samples.size();
  // A table too large to keep is drawn row by row from the same stream.
  const std::shared_ptr<const IndexTable> table = index_table(seed, n, resamples);
  rng::Engine eng = rng::derive_stream(seed, 0xb007ULL);
  std::vector<double> resample(n);
  std::vector<double> estimates;
  estimates.reserve(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    if (table != nullptr) {
      const std::uint32_t* row = table->indices.data() + r * n;
      for (std::size_t i = 0; i < n; ++i) resample[i] = samples[row[i]];
    } else {
      for (auto& x : resample) x = samples[static_cast<std::size_t>(rng::uniform_below(eng, n))];
    }
    estimates.push_back(stat(std::span<const double>(resample)));
  }
  std::sort(estimates.begin(), estimates.end());
  const double alpha = (1.0 - confidence) / 2.0;
  BootstrapInterval ci;
  ci.lower = quantile_sorted(estimates, alpha);
  ci.upper = quantile_sorted(estimates, 1.0 - alpha);
  ci.point = stat(samples);
  return ci;
}

}  // namespace

BootstrapInterval bootstrap_mean_ci(std::span<const double> samples, double confidence,
                                    std::size_t resamples, std::uint64_t seed) {
  return bootstrap_ci(samples, confidence, resamples, seed, [](std::span<const double> s) {
    double sum = 0.0;
    for (double x : s) sum += x;
    return sum / static_cast<double>(s.size());
  });
}

}  // namespace rumor::stats
