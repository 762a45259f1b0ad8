// rumor/core: protocol-level spread telemetry (the observability face of
// the engines, PR 9).
//
// A SpreadProbe is an optional, zero-cost-when-off hook every engine
// accepts through its options struct: when attached it counts each contact
// the protocol draws and classifies the transmissions it carries as useful
// (the first copy of the rumor to reach an uninformed node within the
// engine's commit window) or wasted (the target already knew, the message
// was lost, or another contact of the same window got there first), split
// by push/pull direction. Contacts that carry no transmission at all — both
// endpoints uninformed, or an informed callee in push mode — are empty.
//
// The classification never draws randomness and never changes what an
// engine does: an engine with a probe attached consumes the same RNG stream
// and returns the same result as one without, and with the probe detached
// the instrumented code compiles away (sync fast path) or reduces to one
// predictable null check (event loops). The invariant the accounting is
// built around, checked end-to-end by tools/spread_report.py:
//
//   useful_push + useful_pull == final informed count - |sources|
//
// exactly, per execution, because "useful" is defined as first-to-reach.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/informed_set.hpp"
#include "core/protocol.hpp"

namespace rumor::core {

/// Per-execution contact and transmission counters. Merging probes is
/// field-wise addition, so per-trial counts fold into campaign totals
/// exactly (all integers, no rounding).
struct SpreadProbe {
  std::uint64_t contacts = 0;        ///< contact events observed (incl. empty)
  std::uint64_t useful_push = 0;     ///< push transmissions that first informed their target
  std::uint64_t useful_pull = 0;     ///< pull transmissions that first informed their target
  std::uint64_t wasted_push = 0;     ///< push transmissions that changed nothing
  std::uint64_t wasted_pull = 0;     ///< pull transmissions that changed nothing
  std::uint64_t empty_contacts = 0;  ///< contacts carrying no transmission either way

  void merge(const SpreadProbe& other) noexcept {
    contacts += other.contacts;
    useful_push += other.useful_push;
    useful_pull += other.useful_pull;
    wasted_push += other.wasted_push;
    wasted_pull += other.wasted_pull;
    empty_contacts += other.empty_contacts;
  }

  [[nodiscard]] std::uint64_t useful() const noexcept { return useful_push + useful_pull; }
  [[nodiscard]] std::uint64_t wasted() const noexcept { return wasted_push + wasted_pull; }
};

/// A contact attempt with no partner to talk to (async tick of an isolated
/// node). The synchronous scans skip isolated nodes before drawing anything,
/// so they never record these.
inline void probe_empty_contact(SpreadProbe& probe) noexcept {
  ++probe.contacts;
  ++probe.empty_contacts;
}

/// Classifies one contact of an *instant-commit* engine (the async event
/// loops): a transmission is useful iff its target is uninformed at the
/// event time and the message was not lost. Endpoint states are the
/// pre-event states; call before the engine stamps the target.
inline void probe_instant(SpreadProbe& probe, Mode mode, bool v_in, bool w_in,
                          bool lost) noexcept {
  ++probe.contacts;
  const bool push_tx = mode != Mode::kPull && v_in;
  const bool pull_tx = mode != Mode::kPush && w_in;
  if (!push_tx && !pull_tx) {
    ++probe.empty_contacts;
    return;
  }
  if (push_tx) {
    if (!w_in && !lost) {
      ++probe.useful_push;
    } else {
      ++probe.wasted_push;
    }
  }
  if (pull_tx) {
    if (!v_in && !lost) {
      ++probe.useful_pull;
    } else {
      ++probe.wasted_pull;
    }
  }
}

/// Classifies one contact of a *windowed-commit* engine (synchronous
/// rounds): a transmission is useful iff its target is
/// uninformed at the window start AND this is the first transmission of the
/// window to reach it. `pending` is the window's freshness set — the probe
/// marks the targets it deems useful, and the caller clears those marks at
/// the window commit. Endpoint states are the window-start states.
inline void probe_windowed(SpreadProbe& probe, Mode mode, bool v_in, bool w_in, bool lost,
                           NodeId v, NodeId w, InformedSet& pending) {
  ++probe.contacts;
  const bool push_tx = mode != Mode::kPull && v_in;
  const bool pull_tx = mode != Mode::kPush && w_in;
  if (!push_tx && !pull_tx) {
    ++probe.empty_contacts;
    return;
  }
  if (push_tx) {
    if (!w_in && !lost && pending.test_and_set(w)) {
      ++probe.useful_push;
    } else {
      ++probe.wasted_push;
    }
  }
  if (pull_tx) {
    if (!v_in && !lost && pending.test_and_set(v)) {
      ++probe.useful_pull;
    } else {
      ++probe.wasted_pull;
    }
  }
}

/// Derives the per-round informed-count history from first-informed rounds:
/// curve[r] = |{v : informed_round[v] <= r}| for r = 0..rounds. Bit-identical
/// to recording |informed| after every round in the loop (all integers), so
/// SyncOptions::record_history is now a thin alias for this derivation.
[[nodiscard]] inline std::vector<NodeId> informed_round_curve(
    const std::vector<std::uint64_t>& informed_round, std::uint64_t rounds) {
  std::vector<NodeId> curve(static_cast<std::size_t>(rounds) + 1, 0);
  for (const std::uint64_t r : informed_round) {
    if (r <= rounds) ++curve[static_cast<std::size_t>(r)];
  }
  for (std::size_t i = 1; i < curve.size(); ++i) curve[i] += curve[i - 1];
  return curve;
}

/// A bucketed informed-count history from first-informed times, cut to its
/// grid: curve[k] = |{v : informed_time[v] <= k * bucket}| for the first
/// min(length, points) buckets. `length` is the uncut curve's: just enough
/// buckets that the last covers the latest (finite) inform time, plus one.
/// Nodes never informed (kNeverTime) are not counted by any bucket.
struct TimeCurve {
  std::vector<NodeId> curve;
  std::uint64_t length = 0;
};

/// The TimeCurve of `informed_time`, or nullopt when `length` would pass
/// 2^53, where it is no longer an exact double (a tiny bucket). Costs one
/// pass over the times plus the cut curve, whatever the length.
/// Precondition: bucket > 0.
[[nodiscard]] inline std::optional<TimeCurve> informed_time_curve(
    const std::vector<double>& informed_time, double bucket, std::size_t points) {
  constexpr double kMaxBucket = 9007199254740991.0;  // 2^53 - 1
  // Minimal k with k * bucket >= t, computed with an explicit fix-up so the
  // curve matches the comparison-based definition exactly (ceil of the
  // division alone can land one bucket off after float rounding). No t
  // passes `latest`, whose t / bucket is checked first, so the cast is exact.
  auto bucket_of = [bucket](double t) {
    if (t <= 0.0) return std::uint64_t{0};
    auto k = static_cast<std::uint64_t>(std::ceil(t / bucket));
    while (k > 0 && static_cast<double>(k - 1) * bucket >= t) --k;
    while (static_cast<double>(k) * bucket < t) ++k;
    return k;
  };
  double latest = 0.0;
  for (const double t : informed_time) {
    if (t != kNeverTime && t > latest) latest = t;
  }
  if (!(latest / bucket <= kMaxBucket)) return std::nullopt;
  const std::uint64_t buckets = bucket_of(latest);  // bucket_of is monotone
  if (static_cast<double>(buckets) > kMaxBucket) return std::nullopt;
  TimeCurve out;
  out.length = buckets + 1;
  out.curve.assign(static_cast<std::size_t>(std::min<std::uint64_t>(out.length, points)), 0);
  for (const double t : informed_time) {
    if (t == kNeverTime) continue;
    const std::uint64_t k = bucket_of(t);
    if (k < out.curve.size()) ++out.curve[static_cast<std::size_t>(k)];
  }
  for (std::size_t i = 1; i < out.curve.size(); ++i) out.curve[i] += out.curve[i - 1];
  return out;
}

}  // namespace rumor::core
