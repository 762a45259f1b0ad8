// rumor/sim: the unified experiment registry behind the rumor_bench driver.
//
// Every paper experiment (E1..E15) registers itself here by name. The
// driver binary selects experiments from the command line, applies
// --trials/--seed/--threads/--scale overrides, and renders each result
// either as the familiar aligned table (human mode) or as JSON (--json) so
// that perf-trajectory tooling has one stable machine-readable producer.
//
// An experiment is a function from ExperimentContext to a Json object of
// the shape
//   { "rows":  [ {column: value, ...}, ... ],   // the result table
//     "stats": { name: value, ... },            // headline scalars (fits...)
//     "notes": "one-paragraph interpretation" }
// The driver adds "experiment" and "params" and renders "rows" as the
// aligned table, so entries describe *what* they measured exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "sim/harness.hpp"

namespace rumor::sim {

/// The JSON layer (json/json.hpp), under the names the registry, the
/// scheduler and their callers have always used.
using json::Json;
using json::kReportSchemaVersion;

/// CLI-level knobs shared by every experiment. Zero means "use the
/// experiment's registered default".
struct ExperimentOptions {
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  /// Workload multiplier (the former RUMOR_BENCH_SCALE): scales trial
  /// counts and sweep ranges. Clamped to [1, 64].
  unsigned scale = 1;
};

/// Per-run view handed to an experiment body.
class ExperimentContext {
 public:
  explicit ExperimentContext(ExperimentOptions opts) : opts_(opts) {}

  [[nodiscard]] const ExperimentOptions& options() const noexcept { return opts_; }
  [[nodiscard]] unsigned scale() const noexcept { return opts_.scale; }

  /// Resolves the trial count: the --trials override verbatim, otherwise
  /// the experiment default grown by the scale factor.
  [[nodiscard]] std::uint64_t trials(std::uint64_t experiment_default) const noexcept {
    return opts_.trials != 0 ? opts_.trials : experiment_default * opts_.scale;
  }

  /// Resolves the root seed: the --seed override, else the default.
  [[nodiscard]] std::uint64_t seed(std::uint64_t experiment_default) const noexcept {
    return opts_.seed != 0 ? opts_.seed : experiment_default;
  }

  /// Assembles a harness TrialConfig from the resolved knobs.
  [[nodiscard]] TrialConfig trial_config(std::uint64_t default_trials,
                                         std::uint64_t default_seed) const noexcept {
    TrialConfig config;
    config.trials = trials(default_trials);
    config.seed = seed(default_seed);
    config.threads = opts_.threads;
    return config;
  }

 private:
  ExperimentOptions opts_;
};

using ExperimentFn = std::function<Json(const ExperimentContext&)>;

/// One registered experiment.
struct ExperimentInfo {
  std::string name;      // stable CLI id, e.g. "e3_star"
  std::string title;     // one-line banner
  std::string claim;     // the paper-expected shape being checked
  std::string defaults;  // human summary of default params, e.g. "trials=100 seed=42"
  ExperimentFn run;
};

/// Name-keyed singleton registry; entries self-register at static
/// initialization via ExperimentRegistrar.
class ExperimentRegistry {
 public:
  [[nodiscard]] static ExperimentRegistry& instance();

  /// Registers an experiment; aborts on duplicate names (a programming
  /// error in the bench tree, best caught loudly at startup).
  void add(ExperimentInfo info);

  [[nodiscard]] const ExperimentInfo* find(std::string_view name) const noexcept;
  /// All experiments sorted by name (natural order: e1 < e2 < ... < e15).
  [[nodiscard]] std::vector<const ExperimentInfo*> all() const;

 private:
  std::vector<ExperimentInfo> experiments_;
};

/// Static-initialization hook: `static ExperimentRegistrar r{{...}};`
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(ExperimentInfo info) {
    ExperimentRegistry::instance().add(std::move(info));
  }
};

/// Runs one experiment end-to-end and returns the full report object:
/// { "experiment": name, "schema_version": ..., "params": {...},
///   "rows": [...], ... }.
[[nodiscard]] Json run_experiment(const ExperimentInfo& info, const ExperimentOptions& opts);

/// Durably writes `contents` to `path`: a sibling temp file in the
/// destination's directory is written, flushed, fsync'd, atomically renamed
/// over `path`, and the parent directory is fsync'd so the rename itself
/// survives a crash. The temp file is unlinked on every error path. On
/// failure returns false with a description in `error` (no stream prefix —
/// callers add their program name). Used for --out reports and for campaign
/// checkpoints, where a torn or vanished file would silently lose progress.
[[nodiscard]] bool write_file_atomic(const std::string& path, const std::string& contents,
                                     std::string& error);
/// The same durable write for a document given as consecutive `parts`: they
/// are gathered by writev (IOV_MAX parts per call, resumed after a short
/// write), so the caller never concatenates them. The file holds exactly
/// the parts' bytes in order; empty parts are allowed.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::span<const std::string_view> parts, std::string& error);

/// The rumor_bench command line:
///   rumor_bench --list [--json]
///   rumor_bench [--json] [--out FILE] [--trials N] [--seed S] [--threads T]
///               [--scale K] (--all | <name>...)
///   rumor_bench --campaign spec.json [--json] [--out FILE] [--threads T]
///               [--batch B]
/// Returns the process exit code. Split from main() so the test suite can
/// drive the CLI in-process. --out writes the report through a temp file +
/// rename, so a crashed or interrupted run never leaves a truncated report.
int run_bench_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace rumor::sim
