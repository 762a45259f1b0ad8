#include "stats/curves.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rumor::stats {

CurveAccumulator::CurveAccumulator(const Options& options)
    : sketch_capacity_(options.sketch_capacity),
      moments_(options.points),
      sketches_(options.points, QuantileSketch(options.sketch_capacity)) {}

void CurveAccumulator::add(const std::vector<double>& curve, std::uint64_t native_len) {
  if (curve.empty() || curve.size() < std::min<std::uint64_t>(native_len, moments_.size())) {
    throw std::invalid_argument("CurveAccumulator::add: empty or short curve");
  }
  for (std::size_t k = 0; k < moments_.size(); ++k) {
    const double value = curve[k < curve.size() ? k : curve.size() - 1];
    moments_[k].add(value);
    sketches_[k].add(value);
  }
  ++trials_;
  if (native_len > max_len_) max_len_ = native_len;
}

void CurveAccumulator::merge(const CurveAccumulator& other) {
  if (other.trials_ == 0) return;  // exact identity, whatever its grid
  if (trials_ == 0) {
    *this = other;  // adopt verbatim, grid included
    return;
  }
  if (points() != other.points()) {
    throw std::invalid_argument("CurveAccumulator::merge: grid length mismatch");
  }
  for (std::size_t k = 0; k < moments_.size(); ++k) {
    moments_[k].merge(other.moments_[k]);
    sketches_[k].merge(other.sketches_[k]);
  }
  trials_ += other.trials_;
  if (other.max_len_ > max_len_) max_len_ = other.max_len_;
}

CurveAccumulator::State CurveAccumulator::state() const {
  State s;
  s.trials = trials_;
  s.max_len = max_len_;
  s.moments.reserve(moments_.size());
  s.sketches.reserve(sketches_.size());
  for (const RunningMoments& m : moments_) s.moments.push_back(m.state());
  for (const QuantileSketch& q : sketches_) s.sketches.push_back(q.state());
  return s;
}

CurveAccumulator CurveAccumulator::restored(const Options& options, const State& s) {
  if (s.moments.size() != options.points || s.sketches.size() != options.points) {
    throw std::invalid_argument("CurveAccumulator::restored: grid length mismatch");
  }
  CurveAccumulator acc(options);
  acc.trials_ = s.trials;
  acc.max_len_ = s.max_len;
  for (std::size_t k = 0; k < options.points; ++k) {
    acc.moments_[k].restore(s.moments[k]);
    acc.sketches_[k].restore(s.sketches[k]);
  }
  return acc;
}

// --- Checkpoint codecs ----------------------------------------------------------

namespace {

/// ContactTotals' fields in their JSON order: one table for both directions.
constexpr std::pair<const char*, std::uint64_t ContactTotals::*> kTotalsFields[] = {
    {"contacts", &ContactTotals::contacts},
    {"useful_push", &ContactTotals::useful_push},
    {"useful_pull", &ContactTotals::useful_pull},
    {"wasted_push", &ContactTotals::wasted_push},
    {"wasted_pull", &ContactTotals::wasted_pull},
    {"empty_contacts", &ContactTotals::empty_contacts},
    {"ticks", &ContactTotals::ticks},
    {"informed_total", &ContactTotals::informed_total},
};

}  // namespace

json::Json ContactTotals::to_json() const {
  json::Json o = json::Json::object();
  for (const auto& [key, field] : kTotalsFields) o.set(key, this->*field);
  return o;
}

ContactTotals ContactTotals::from_json(const json::Json& o, const std::string& ctx) {
  ContactTotals t;
  for (const auto& [key, field] : kTotalsFields) t.*field = json::get<std::uint64_t>(o, key, ctx);
  return t;
}

json::Json CurveAccumulator::State::to_json() const {
  json::Json m = json::Json::array();
  for (const RunningMoments::State& s : moments) m.push_back(s.to_json());
  json::Json q = json::Json::array();
  for (const QuantileSketch::State& s : sketches) q.push_back(s.to_json());
  json::Json o = json::Json::object();
  o.set("trials", trials);
  o.set("max_len", max_len);
  o.set("moments", std::move(m));
  o.set("sketches", std::move(q));
  return o;
}

CurveAccumulator::State CurveAccumulator::State::from_json(const json::Json& o,
                                                           const std::string& ctx) {
  State s;
  s.trials = json::get<std::uint64_t>(o, "trials", ctx);
  s.max_len = json::get<std::uint64_t>(o, "max_len", ctx);
  for (const json::Json& m : json::array_member(o, "moments", ctx)) {
    s.moments.push_back(RunningMoments::State::from_json(m, ctx));
  }
  for (const json::Json& q : json::array_member(o, "sketches", ctx)) {
    s.sketches.push_back(QuantileSketch::State::from_json(q, ctx));
  }
  return s;
}

}  // namespace rumor::stats
