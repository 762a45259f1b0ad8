// Test support (namespace rumor::analysis): closed-form spreading-time
// predictions from the literature, used as oracles by tests.
//
// Every prediction is an asymptotic law with explicit leading constant
// where one is known; `PredictionWindow` wraps it with multiplicative slack
// so Monte-Carlo estimates can be checked against theory mechanically:
//
//   star (sync pp, leaf source)      exactly <= 2 rounds          [paper §1]
//   star (async pp)                  ~ ln n (+ lower-order)       [paper §1]
//   star (sync push, hub source)     coupon collector (n-1)H(n-1) [paper §1]
//   complete graph (sync pp)         log3 n + O(log log n)        [22]
//   complete graph (sync push)       log2 n + ln n + o(log n)     [13, 22]
//   path/cycle                       Theta(n), rate in [2/3, 1] hops/round
//   hypercube, ER, random regular    Theta(log n)                 [13, 15]
//   conductance                      O(log n / phi)               [6, 17]
//   bundle chain (sync pp)           exactly 2*len + 1 rounds (distance
//                                    bound + per-bundle 2-round relay)
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace rumor::analysis {

/// A predicted value with a tolerance window [low, high] within which a
/// (sufficiently sampled) measurement must fall.
struct PredictionWindow {
  double predicted = 0.0;
  double low = 0.0;
  double high = 0.0;
  std::string law;  // human-readable formula, e.g. "ln n + ln ln n"

  [[nodiscard]] bool contains(double measured) const {
    return measured >= low && measured <= high;
  }
};

/// Star S_n, sync push-pull from a leaf: T <= 2 deterministically
/// (round 1: source pushes to hub — and every other leaf contacts the hub;
/// round 2: all leaves pull). Window [1, 2].
[[nodiscard]] PredictionWindow star_sync_pushpull(std::uint32_t n);

/// Star S_n, async push-pull (any source): mean ~ H(n-1) + O(1) — every
/// leaf's pull clock must fire once; max of n-1 unit-ish exponentials.
[[nodiscard]] PredictionWindow star_async_pushpull_mean(std::uint32_t n);

/// Star S_n, sync push from the hub: coupon collector (n-1) H(n-1).
[[nodiscard]] PredictionWindow star_sync_push_mean(std::uint32_t n);

/// Complete graph K_n, sync push-pull: log3-growth phase then doubly-log
/// pull finish; window built on log3(n) with generous slack for the
/// additive term.
[[nodiscard]] PredictionWindow complete_sync_pushpull_mean(std::uint32_t n);

/// Complete graph K_n, sync push: log2 n + ln n + o(log n) [13, 22].
[[nodiscard]] PredictionWindow complete_sync_push_mean(std::uint32_t n);

/// Path P_n from one end, sync push-pull: the frontier advances with
/// probability 3/4 per round (frontier pushes right w.p. 1/2; right
/// neighbor pulls w.p. 1/2) => mean ~ 4(n-1)/3.
[[nodiscard]] PredictionWindow path_sync_pushpull_mean(std::uint32_t n);

/// Bundle chain, sync push-pull from relay 0: exactly 2*len + 1 rounds
/// w.h.p. (distance 2*len, plus one round because the first helpers inform
/// in round 1 but the next relay needs round 2, cascading one extra).
[[nodiscard]] PredictionWindow bundle_chain_sync_rounds(std::uint32_t len,
                                                        std::uint32_t width);

/// Generic conductance bound: T_hp(pp) <= c * log(n) / phi for a universal
/// c (empirically <= 10 across families; we use the measured-phi value).
[[nodiscard]] PredictionWindow conductance_bound(std::uint32_t n, double phi);

}  // namespace rumor::analysis
