#include "obs/trace.hpp"

#include <cstdio>

#include "json/json.hpp"
#include "obs/build_info.hpp"

namespace rumor::obs {

void append_us_fixed(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

namespace {

void append_uint(std::string& out, std::uint64_t v) { out += std::to_string(v); }

void append_histogram(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append_uint(out, h.count);
  out += ",\"sum\":";
  append_uint(out, h.sum);
  out += ",\"min\":";
  append_uint(out, h.count == 0 ? 0 : h.min);
  out += ",\"max\":";
  append_uint(out, h.max);
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out += ',';
    first = false;
    // [lower bound of the bucket, count]: bucket 0 holds zeros, bucket b
    // holds [2^(b-1), 2^b).
    out += '[';
    append_uint(out, b == 0 ? 0 : (std::uint64_t{1} << (b - 1)));
    out += ',';
    append_uint(out, h.buckets[b]);
    out += ']';
  }
  out += "]}";
}

void append_worker_metrics(std::string& out, const WorkerMetrics& m) {
  out += "{\"blocks_executed\":";
  append_uint(out, m.blocks_executed);
  out += ",\"trials_simulated\":";
  append_uint(out, m.trials_simulated);
  out += ",\"sync_rounds\":";
  append_uint(out, m.sync_rounds);
  out += ",\"async_events\":";
  append_uint(out, m.async_events);
  out += ",\"lane_trials\":";
  append_uint(out, m.lane_trials);
  out += ",\"graph_builds\":";
  append_uint(out, m.graph_builds);
  out += ",\"graph_frees\":";
  append_uint(out, m.graph_frees);
  out += ",\"busy_ns\":";
  append_uint(out, m.busy_ns);
  out += ",\"idle_ns\":";
  append_uint(out, m.idle_ns);
  out += '}';
}

void append_metrics(std::string& out, const MetricsSnapshot& snap) {
  out += "{\"wall_ns\":";
  append_uint(out, snap.wall_ns);
  out += ",\"blocks_scheduled\":";
  append_uint(out, snap.blocks_scheduled);
  out += ",\"checkpoint_writes\":";
  append_uint(out, snap.checkpoint_writes);
  out += ",\"queue_depth\":";
  append_histogram(out, snap.queue_depth);
  out += ",\"checkpoint_write_ns\":";
  append_histogram(out, snap.checkpoint_write_ns);
  out += ",\"totals\":";
  append_worker_metrics(out, snap.totals);
  out += ",\"workers\":[";
  for (std::size_t w = 0; w < snap.workers.size(); ++w) {
    if (w != 0) out += ',';
    append_worker_metrics(out, snap.workers[w]);
  }
  out += "],\"per_config\":[";
  for (std::size_t c = 0; c < snap.per_config.size(); ++c) {
    if (c != 0) out += ',';
    out += "{\"id\":";
    json::append_escaped(out, c < snap.config_ids.size() ? snap.config_ids[c] : "");
    out += ",\"blocks\":";
    append_uint(out, snap.per_config[c].blocks);
    out += ",\"trials\":";
    append_uint(out, snap.per_config[c].trials);
    out += ",\"busy_ns\":";
    append_uint(out, snap.per_config[c].busy_ns);
    out += '}';
  }
  out += "]}";
}

void append_span_event(std::string& out, const TraceSpan& span, std::size_t tid,
                       const std::vector<std::string>* config_ids) {
  out += "{\"name\":";
  json::append_escaped(out, span.name);
  out += ",\"cat\":\"campaign\",\"ph\":\"X\",\"ts\":";
  append_us_fixed(out, span.begin_ns);
  out += ",\"dur\":";
  append_us_fixed(out, span.end_ns - span.begin_ns);
  out += ",\"pid\":1,\"tid\":";
  append_uint(out, tid);
  out += ",\"args\":{";
  bool first = true;
  if (span.has_config && config_ids != nullptr && span.config < config_ids->size()) {
    out += "\"config\":";
    json::append_escaped(out, (*config_ids)[span.config]);
    first = false;
  }
  if (span.slot >= 0) {
    if (!first) out += ',';
    out += "\"slot\":";
    append_uint(out, static_cast<std::uint64_t>(span.slot));
  }
  out += "}}";
}

}  // namespace

std::string render_chrome_trace(const TraceRenderInput& input) {
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t tid = 0; tid < input.lanes.size(); ++tid) {
    // A thread_name metadata event per lane, so Perfetto labels the tracks.
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_uint(out, tid);
    out += ",\"args\":{\"name\":";
    json::append_escaped(out, input.lanes[tid].first);
    out += "}}";
  }
  for (std::size_t tid = 0; tid < input.lanes.size(); ++tid) {
    for (const TraceSpan& span : *input.lanes[tid].second) {
      out += ",\n";
      append_span_event(out, span, tid, input.config_ids);
    }
  }
  json::Json other = json::Json::object();
  other.set("schema_version", json::kReportSchemaVersion);
  other.set("campaign", input.campaign);
  other.set("build_info", build_info_json());
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":";
  other.dump_to(out, -1, 0);
  if (input.metrics != nullptr) {
    out += ",\n\"metrics\":";
    append_metrics(out, *input.metrics);
  }
  out += "\n}\n";
  return out;
}

}  // namespace rumor::obs
