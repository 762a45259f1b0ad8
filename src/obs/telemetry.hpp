// rumor/obs: the telemetry facade the campaign scheduler talks to.
//
// One Telemetry object per campaign run. The scheduler calls begin() once
// the worker count is known, hands each worker its WorkerSink (sharded, no
// locks on the hot path), and calls end() after the pool joins. The CLI
// then pulls a MetricsSnapshot and/or a rendered Chrome trace.
//
// Everything here is observational: a Telemetry never feeds back into
// scheduling, and a null Telemetry* in CampaignOptions (the default) means
// the scheduler takes zero-cost `if (tel)` branches and produces
// byte-identical reports (tested in tests/test_obs.cpp).
//
// Thread-safety map:
//  - WorkerSink: owned by exactly one worker thread between begin()/end().
//  - on_blocks_scheduled()/sample_queue_depth(): called under the block
//    queue's own mutex, which serializes them.
//  - on_block_done()/set_phase(): relaxed atomics via ProgressMeter.
//  - on_checkpoint_write(): serialized by the recorder's write mutex, but
//    guarded by a mutex here anyway since it is cold.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rumor::obs {

class ProgressMeter;

/// Per-worker telemetry shard: counters plus (when tracing) a span log.
class WorkerSink {
 public:
  WorkerMetrics metrics;
  std::vector<ConfigCost> per_config;  // indexed like the campaign's configs

  /// Nanoseconds since the campaign's begin(). Monotone within a worker.
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records a completed span when tracing; no-op otherwise. `name` must be
  /// a string literal.
  void span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            std::uint32_t config, std::int64_t slot = -1) {
    if (!tracing_) return;
    spans_.push_back(TraceSpan{name, begin_ns, end_ns, config, slot, true});
  }

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

 private:
  friend class Telemetry;
  std::vector<TraceSpan> spans_;
  std::chrono::steady_clock::time_point epoch_;
  bool tracing_ = false;
};

class Telemetry {
 public:
  struct Options {
    bool trace = false;               // record spans for --trace export
    bool progress = false;            // heartbeat lines on progress_stream
    std::ostream* progress_stream = nullptr;  // nullptr means std::cerr
    std::chrono::milliseconds progress_interval{500};
  };

  Telemetry();
  explicit Telemetry(Options options);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Called by the scheduler once configs and worker count are known.
  /// `label` names the campaign in progress lines and the trace.
  void begin(std::vector<std::string> config_ids, unsigned workers, std::string label);
  /// Called after the worker pool joins. Stops the heartbeat and stamps the
  /// campaign wall time. Idempotent; the destructor calls it too.
  void end();

  /// The shard for worker `worker` (0-based); valid between begin()/end().
  [[nodiscard]] WorkerSink& sink(unsigned worker) { return sinks_[worker]; }
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  // --- queue hooks (called under the BlockQueue mutex) -------------------
  void on_blocks_scheduled(std::size_t n);
  void sample_queue_depth(std::size_t depth);

  // --- worker hooks (lock-free) ------------------------------------------
  void on_block_done();
  /// `phase` must be a string literal.
  void set_phase(const char* phase);

  // --- checkpoint hook ----------------------------------------------------
  void on_checkpoint_write(std::uint64_t begin_ns, std::uint64_t end_ns);

  [[nodiscard]] bool tracing() const noexcept { return options_.trace; }

  /// Merged registry view; call after end(). Deterministic for the "exact"
  /// counters: shards merge in worker-index order and sums commute.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The full Chrome trace-event JSON document; call after end().
  [[nodiscard]] std::string render_trace() const;
  /// Writes render_trace() to `path` durably (json::write_file_atomic).
  /// Returns false and fills `error` on I/O failure.
  bool write_trace(const std::string& path, std::string* error) const;

 private:
  Options options_;
  std::vector<std::string> config_ids_;
  std::string label_;
  std::vector<WorkerSink> sinks_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t wall_ns_ = 0;
  bool began_ = false;
  bool ended_ = false;

  // Queue-side state, serialized by the queue's mutex.
  std::uint64_t blocks_scheduled_ = 0;
  Histogram queue_depth_;

  // Checkpoint-service state.
  std::mutex service_mutex_;
  Histogram checkpoint_write_ns_;
  std::uint64_t checkpoint_writes_ = 0;
  std::vector<TraceSpan> service_spans_;

  std::unique_ptr<ProgressMeter> progress_;
};

}  // namespace rumor::obs
