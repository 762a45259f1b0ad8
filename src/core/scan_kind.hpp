// rumor/core (internal to sync.cpp and async.cpp): how the two hot loops —
// the synchronous round scan and the async global-clock tick loop — fetch
// the contacted neighbor, and the dispatcher that turns a trial's runtime
// knobs into one specialized instantiation of either loop.
#pragma once

#include <cstdint>

#include "core/protocol.hpp"

namespace rumor::core {

/// How a contact draws its callee.
enum class ScanKind : std::uint8_t {
  kView,     // through a dynamics overlay (churn and/or weights)
  kStatic,   // base CSR, per-node degree
  kRegular,  // base CSR, uniform degree: one flat row stride, no offsets
};

/// The scan for one trial: the overlay when one is attached, the flat
/// stride when every node has the same positive degree, else the CSR rows.
[[nodiscard]] inline ScanKind choose_scan(const Graph& g, bool has_view) noexcept {
  if (has_view) return ScanKind::kView;
  if (g.num_nodes() > 0 && g.degree(0) > 0 && g.is_regular()) return ScanKind::kRegular;
  return ScanKind::kStatic;
}

namespace scan_detail {

template <Mode M, bool HasLoss, ScanKind K, class Loop>
decltype(auto) with_probe(bool has_probe, Loop& loop) {
  if (has_probe) return loop.template operator()<M, HasLoss, K, true>();
  return loop.template operator()<M, HasLoss, K, false>();
}

template <Mode M, bool HasLoss, class Loop>
decltype(auto) with_scan(ScanKind scan, bool has_probe, Loop& loop) {
  switch (scan) {
    case ScanKind::kView: return with_probe<M, HasLoss, ScanKind::kView>(has_probe, loop);
    case ScanKind::kRegular: return with_probe<M, HasLoss, ScanKind::kRegular>(has_probe, loop);
    case ScanKind::kStatic: break;
  }
  return with_probe<M, HasLoss, ScanKind::kStatic>(has_probe, loop);
}

template <Mode M, class Loop>
decltype(auto) with_loss(bool has_loss, ScanKind scan, bool has_probe, Loop& loop) {
  if (has_loss) return with_scan<M, true>(scan, has_probe, loop);
  return with_scan<M, false>(scan, has_probe, loop);
}

}  // namespace scan_detail

/// Calls `loop.template operator()<M, HasLoss, K, HasProbe>()` with the
/// template arguments equal to the runtime (mode, has_loss, scan,
/// has_probe): the choice is made once per trial, so the loop body carries
/// no per-contact test of any of them.
template <class Loop>
decltype(auto) specialize(Mode mode, bool has_loss, ScanKind scan, bool has_probe, Loop&& loop) {
  switch (mode) {
    case Mode::kPush: return scan_detail::with_loss<Mode::kPush>(has_loss, scan, has_probe, loop);
    case Mode::kPull: return scan_detail::with_loss<Mode::kPull>(has_loss, scan, has_probe, loop);
    case Mode::kPushPull: break;
  }
  return scan_detail::with_loss<Mode::kPushPull>(has_loss, scan, has_probe, loop);
}

}  // namespace rumor::core
