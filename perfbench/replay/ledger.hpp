// The layer ledger of the traced replay: wall time attributed to the
// library module (layer) whose public function was running.
//
// Timings are recorded from outside the library, around calls into it. A
// timed interval is named "<layer>.<what>", e.g. "core.sync" or
// "sim.report"; the layer is the part before the first dot and matches a
// src/ module name ("bench" is the replay's own checking code). Intervals
// may nest through Span: a span's self time is its duration minus the time
// of the intervals recorded while it was open, so the self times of all
// intervals add up to the time the ledger covered, never more.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(Clock::time_point begin, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
}

class Ledger {
 public:
  struct Entry {
    std::uint64_t total_ns = 0;  // summed durations
    std::uint64_t self_ns = 0;   // durations minus nested intervals
    std::uint64_t count = 0;     // intervals recorded
  };

  /// Records one closed interval of `ns` under `name`.
  void add(const std::string& name, std::uint64_t ns) { close(name, ns, 0); }

  /// A scoped interval; nested add() calls and Spans count as its children.
  class Span {
   public:
    Span(Ledger& ledger, std::string name)
        : ledger_(ledger), name_(std::move(name)), begin_(Clock::now()) {
      ledger_.open_children_.push_back(0);
    }
    ~Span() {
      const std::uint64_t ns = elapsed_ns(begin_, Clock::now());
      const std::uint64_t children = ledger_.open_children_.back();
      ledger_.open_children_.pop_back();
      ledger_.close(name_, ns, children);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

   private:
    Ledger& ledger_;
    std::string name_;
    Clock::time_point begin_;
  };

  [[nodiscard]] const std::map<std::string, Entry>& entries() const noexcept { return entries_; }

  [[nodiscard]] Entry get(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? Entry{} : it->second;
  }

  /// Self time per layer (the name up to its first dot).
  [[nodiscard]] std::map<std::string, std::uint64_t> layer_self_ns() const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, e] : entries_) out[name.substr(0, name.find('.'))] += e.self_ns;
    return out;
  }

 private:
  void close(const std::string& name, std::uint64_t ns, std::uint64_t children) {
    Entry& e = entries_[name];
    e.total_ns += ns;
    e.self_ns += ns > children ? ns - children : 0;
    e.count += 1;
    if (!open_children_.empty()) open_children_.back() += ns;
  }

  std::map<std::string, Entry> entries_;
  std::vector<std::uint64_t> open_children_;  // child time of each open Span
};

}  // namespace perfbench
