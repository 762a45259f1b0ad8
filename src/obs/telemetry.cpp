#include "obs/telemetry.hpp"

#include <iostream>

#include "json/json.hpp"
#include "obs/progress.hpp"

namespace rumor::obs {

Telemetry::Telemetry() : Telemetry(Options{}) {}

Telemetry::Telemetry(Options options) : options_(options) {}

Telemetry::~Telemetry() { end(); }

void Telemetry::begin(std::vector<std::string> config_ids, unsigned workers,
                      std::string label) {
  config_ids_ = std::move(config_ids);
  label_ = std::move(label);
  epoch_ = std::chrono::steady_clock::now();
  sinks_.assign(workers, WorkerSink{});
  for (WorkerSink& sink : sinks_) {
    sink.epoch_ = epoch_;
    sink.tracing_ = options_.trace;
    sink.per_config.assign(config_ids_.size(), ConfigCost{});
  }
  began_ = true;
  ended_ = false;
  if (options_.progress) {
    std::ostream& out =
        options_.progress_stream != nullptr ? *options_.progress_stream : std::cerr;
    progress_ = std::make_unique<ProgressMeter>(out, options_.progress_interval);
    progress_->start(label_);
  }
}

void Telemetry::end() {
  if (!began_ || ended_) return;
  ended_ = true;
  wall_ns_ = now_ns();
  if (progress_) progress_->stop();
}

std::uint64_t Telemetry::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Telemetry::on_blocks_scheduled(std::size_t n) {
  blocks_scheduled_ += n;
  if (progress_) progress_->on_scheduled(n);
}

void Telemetry::sample_queue_depth(std::size_t depth) { queue_depth_.add(depth); }

void Telemetry::on_block_done() {
  if (progress_) progress_->on_done();
}

void Telemetry::set_phase(const char* phase) {
  if (progress_) progress_->set_phase(phase);
}

void Telemetry::on_checkpoint_write(std::uint64_t begin_ns, std::uint64_t end_ns) {
  const std::scoped_lock lock(service_mutex_);
  checkpoint_writes_ += 1;
  checkpoint_write_ns_.add(end_ns - begin_ns);
  if (options_.trace) {
    service_spans_.push_back(TraceSpan{"checkpoint:write", begin_ns, end_ns, 0, -1, false});
  }
}

MetricsSnapshot Telemetry::snapshot() const {
  MetricsSnapshot snap;
  snap.config_ids = config_ids_;
  snap.per_config.assign(config_ids_.size(), ConfigCost{});
  snap.workers.reserve(sinks_.size());
  for (const WorkerSink& sink : sinks_) {
    snap.workers.push_back(sink.metrics);
    snap.totals.merge(sink.metrics);
    for (std::size_t c = 0; c < snap.per_config.size() && c < sink.per_config.size(); ++c) {
      snap.per_config[c].merge(sink.per_config[c]);
    }
  }
  snap.queue_depth = queue_depth_;
  snap.checkpoint_write_ns = checkpoint_write_ns_;
  snap.checkpoint_writes = checkpoint_writes_;
  snap.blocks_scheduled = blocks_scheduled_;
  snap.wall_ns = ended_ ? wall_ns_ : now_ns();
  return snap;
}

std::string Telemetry::render_trace() const {
  const MetricsSnapshot snap = snapshot();
  TraceRenderInput input;
  input.campaign = label_;
  input.config_ids = &config_ids_;
  input.metrics = &snap;
  input.lanes.reserve(sinks_.size() + 1);
  for (std::size_t w = 0; w < sinks_.size(); ++w) {
    input.lanes.emplace_back("worker " + std::to_string(w), &sinks_[w].spans_);
  }
  if (!service_spans_.empty()) {
    input.lanes.emplace_back("checkpoint", &service_spans_);
  }
  return render_chrome_trace(input);
}

bool Telemetry::write_trace(const std::string& path, std::string* error) const {
  std::string why;
  if (json::write_file_atomic(path, render_trace(), why)) return true;
  if (error != nullptr) *error = "cannot write trace file " + path + ": " + why;
  return false;
}

}  // namespace rumor::obs
