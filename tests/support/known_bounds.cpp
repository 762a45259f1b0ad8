#include "support/known_bounds.hpp"

#include <cassert>
#include <cmath>

#include "support/tail_bounds.hpp"

namespace rumor::analysis {

namespace {

PredictionWindow window(double predicted, double rel_low, double rel_high, std::string law) {
  PredictionWindow w;
  w.predicted = predicted;
  w.low = predicted * rel_low;
  w.high = predicted * rel_high;
  w.law = std::move(law);
  return w;
}

}  // namespace

PredictionWindow star_sync_pushpull([[maybe_unused]] std::uint32_t n) {
  assert(n >= 3);
  PredictionWindow w;
  w.predicted = 2.0;
  w.low = 1.0;
  w.high = 2.0;
  w.law = "<= 2 rounds deterministically (leaf source)";
  return w;
}

PredictionWindow star_async_pushpull_mean(std::uint32_t n) {
  assert(n >= 3);
  // Completion requires every non-hub node to be touched by its own edge
  // clock; the per-leaf pull/push clocks combine to ~unit rate, so the mean
  // sits near H(n-1) plus the O(1) hub phase. Empirical constant is within
  // [0.8, 1.8] x H(n-1) across the tested range.
  const double h = dist::harmonic(n - 1);
  return window(h, 0.7, 2.0, "~ H(n-1) (max of unit-rate exponentials)");
}

PredictionWindow star_sync_push_mean(std::uint32_t n) {
  assert(n >= 3);
  // Hub pushes to a uniform leaf each round: coupon collector on n-1.
  const double cc = dist::coupon_collector_mean(n - 1);
  return window(cc, 0.8, 1.25, "(n-1) H(n-1) (coupon collector, hub source)");
}

PredictionWindow complete_sync_pushpull_mean(std::uint32_t n) {
  assert(n >= 4);
  // Growth: |I| multiplies by ~3 per round while small (push doubles, pull
  // adds again); finish: pull closes the last gap in O(log log n). Leading
  // term log3 n; slack covers the additive lower-order phases.
  const double log3 = std::log(static_cast<double>(n)) / std::log(3.0);
  return window(log3, 0.9, 2.5, "log3(n) + O(log log n)");
}

PredictionWindow complete_sync_push_mean(std::uint32_t n) {
  assert(n >= 4);
  const double nn = static_cast<double>(n);
  const double predicted = std::log2(nn) + std::log(nn);
  return window(predicted, 0.8, 1.3, "log2(n) + ln(n) + o(log n)");
}

PredictionWindow path_sync_pushpull_mean(std::uint32_t n) {
  assert(n >= 3);
  // Frontier advance per round: P[push right] + P[pull from left] -
  // P[both] = 1/2 + 1/2 - 1/4 = 3/4; advances are +1 at most.
  const double predicted = 4.0 * static_cast<double>(n - 1) / 3.0;
  return window(predicted, 0.85, 1.2, "4(n-1)/3 (frontier advances w.p. 3/4)");
}

PredictionWindow bundle_chain_sync_rounds(std::uint32_t len, std::uint32_t width) {
  assert(len >= 1);
  // Distance from relay 0 to relay len is 2*len; each bundle relays in
  // exactly 2 rounds once its near relay is informed (w.h.p. for width >>
  // log: half the helpers pull in one round, one pushes on). The +1 offset
  // comes from the first round informing helpers only.
  PredictionWindow w;
  w.predicted = 2.0 * len + 1.0;
  // For narrow bundles a relay can occasionally take an extra round.
  const double slack = width >= 16 ? 2.0 : 0.25 * len;
  w.low = 2.0 * len;
  w.high = w.predicted + slack;
  w.law = "2*len + 1 (distance-bound + 2-round bundle relay)";
  return w;
}

PredictionWindow conductance_bound(std::uint32_t n, double phi) {
  assert(phi > 0.0);
  PredictionWindow w;
  w.predicted = std::log(static_cast<double>(n)) / phi;
  w.low = 0.0;  // it is an upper bound, not a two-sided estimate
  w.high = 10.0 * w.predicted;
  w.law = "T_hp <= c * log(n)/phi  [6, 17]";
  return w;
}

}  // namespace rumor::analysis
