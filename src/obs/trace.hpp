// rumor/obs: Chrome trace-event / Perfetto-compatible trace export.
//
// Spans are collected per worker into plain vectors (owner-only writes, no
// locking) and rendered once, after the pool joins, as one JSON document in
// the trace-event format chrome://tracing and ui.perfetto.dev load
// directly:
//
//   { "traceEvents": [ {"name": "block:trials", "cat": "campaign",
//                       "ph": "X", "ts": 12.345, "dur": 3.210,
//                       "pid": 1, "tid": 0,
//                       "args": {"config": "star_n256_sync_push-pull",
//                                "slot": 4}}, ... ],
//     "displayTimeUnit": "ms",
//     "otherData": { "campaign": ..., "build_info": {...} },
//     "metrics": { ...the merged registry snapshot... } }
//
// ts/dur are microseconds. They are rendered in *fixed point* from the
// steady-clock nanosecond timestamps ("%llu.%03llu"), so values up to ~10^5
// seconds are exact in an IEEE double and consumers (tools/trace_report.py)
// can check span nesting and monotonicity without rounding slop. The
// top-level "metrics" key is an extension — the trace-event format ignores
// unknown top-level keys — and is what lets trace_report.py cross-check
// span counts against the metrics registry exactly.
//
// Spans and metrics are rendered as text directly (integers, fixed point,
// and strings through the JSON layer's one escaper), so a trace of many
// thousand spans never builds a Json tree; the otherData block is a Json
// object (json/json.hpp), carrying build_info_json() verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace rumor::obs {

/// One completed span. `name` must point at a string literal (spans are
/// recorded on the hot path; no per-span allocation). config indexes the
/// campaign's configuration list; slot < 0 means "not slot-addressed"
/// (graph builds, folds, checkpoint writes).
struct TraceSpan {
  const char* name = "";
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t config = 0;
  std::int64_t slot = -1;
  bool has_config = true;
};

/// Everything the renderer needs, borrowed for the duration of the call.
struct TraceRenderInput {
  std::string campaign;
  /// Lane i renders as tid i with the given thread name ("worker 0", ...,
  /// "checkpoint"); spans need not be sorted.
  std::vector<std::pair<std::string, const std::vector<TraceSpan>*>> lanes;
  /// Resolves TraceSpan::config to the report id in span args.
  const std::vector<std::string>* config_ids = nullptr;
  /// Embedded registry snapshot (nullptr = omit the "metrics" key).
  const MetricsSnapshot* metrics = nullptr;
};

/// Renders the complete trace document (newline-terminated).
[[nodiscard]] std::string render_chrome_trace(const TraceRenderInput& input);

/// Appends nanoseconds as fixed-point microseconds ("12.345").
void append_us_fixed(std::string& out, std::uint64_t ns);

}  // namespace rumor::obs
