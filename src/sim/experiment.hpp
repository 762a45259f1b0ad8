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
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/harness.hpp"

namespace rumor::sim {

/// Minimal JSON document: ordered objects, arrays, numbers, strings,
/// booleans, null. Supports both serialization (the bench driver's output)
/// and parsing (validation and future BENCH_*.json consumers). Not a
/// general-purpose JSON library — just enough for experiment reports.
/// Numbers are IEEE doubles: integers above 2^53 lose precision, so the
/// CLI rejects --seed/--trials values beyond that.
class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}                    // NOLINT(google-explicit-constructor)
  Json(double v) noexcept : type_(Type::kNumber), number_(v) {}              // NOLINT(google-explicit-constructor)
  Json(int v) noexcept : Json(static_cast<double>(v)) {}                     // NOLINT(google-explicit-constructor)
  Json(unsigned v) noexcept : Json(static_cast<double>(v)) {}                // NOLINT(google-explicit-constructor)
  Json(std::uint64_t v) noexcept : Json(static_cast<double>(v)) {}           // NOLINT(google-explicit-constructor)
  Json(std::int64_t v) noexcept : Json(static_cast<double>(v)) {}            // NOLINT(google-explicit-constructor)
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}       // NOLINT(google-explicit-constructor)
  Json(const char* s) : type_(Type::kString), string_(s) {}                  // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }

  /// Array append. Precondition: is_array().
  void push_back(Json v);
  /// Object insert-or-assign, preserving first-insertion order.
  /// Precondition: is_object(). Returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Array elements / object entries (empty for scalar types).
  [[nodiscard]] const std::vector<Json>& elements() const noexcept { return elements_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& entries() const noexcept {
    return entries_;
  }
  /// Mutable entries view, so callers can move values out of a document
  /// they are consuming instead of deep-copying row arrays.
  [[nodiscard]] std::vector<std::pair<std::string, Json>>& mutable_entries() noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::kObject ? entries_.size() : elements_.size();
  }

  /// Serializes; indent < 0 renders compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = -1) const;
  /// Appends this value rendered as it appears `depth` levels deep inside
  /// a document dumped with `indent` (no leading pad, no trailing newline),
  /// so a caller can splice pre-rendered parts into one document's bytes.
  void dump_to(std::string& out, int indent, int depth) const;

  /// Parses a complete JSON document; nullopt on any syntax error or
  /// trailing garbage.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> elements_;                         // kArray
  std::vector<std::pair<std::string, Json>> entries_;  // kObject
};

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

/// Version of the JSON report layout rumor_bench emits (experiment reports
/// and campaign reports alike) and of the campaign checkpoint snapshot's
/// report-facing fields, stamped top-level as "schema_version". Bump it on
/// renames/removals/semantic changes of existing keys; purely additive keys
/// keep the number (consumers must ignore keys they do not know). The
/// Python tools under tools/ warn on versions newer than they understand;
/// documents without the key predate versioning and are read as version 1.
/// Compatibility policy: bench/README.md, "Report schema versioning".
inline constexpr std::uint64_t kReportSchemaVersion = 1;

/// Runs one experiment end-to-end and returns the full report object:
/// { "experiment": name, "schema_version": ..., "params": {...},
///   "rows": [...], ... }.
[[nodiscard]] Json run_experiment(const ExperimentInfo& info, const ExperimentOptions& opts);

/// The binary's build provenance (obs/build_info.hpp) as the JSON object
/// every report embeds under "build_info": git sha, compiler + version,
/// build type, flags. Constant for a given binary, so same-binary report
/// comparisons (the CI byte-diff contracts) are unaffected.
[[nodiscard]] Json build_info_json();

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
