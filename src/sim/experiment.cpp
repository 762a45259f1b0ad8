#include "sim/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include "obs/build_info.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"

#include "sim/campaign.hpp"
#include "sim/table.hpp"

namespace rumor::sim {

// --- Registry ---------------------------------------------------------------

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(ExperimentInfo info) {
  if (find(info.name) != nullptr) {
    std::fprintf(stderr, "duplicate experiment registration: %s\n", info.name.c_str());
    std::abort();
  }
  experiments_.push_back(std::move(info));
}

const ExperimentInfo* ExperimentRegistry::find(std::string_view name) const noexcept {
  for (const auto& e : experiments_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {

/// Natural order: digit runs compare numerically, so e2 < e10.
bool natural_less(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const bool da = std::isdigit(static_cast<unsigned char>(a[i])) != 0;
    const bool db = std::isdigit(static_cast<unsigned char>(b[j])) != 0;
    if (da && db) {
      std::size_t ia = i;
      std::size_t jb = j;
      while (ia < a.size() && std::isdigit(static_cast<unsigned char>(a[ia]))) ++ia;
      while (jb < b.size() && std::isdigit(static_cast<unsigned char>(b[jb]))) ++jb;
      const auto na = std::stoull(a.substr(i, ia - i));
      const auto nb = std::stoull(b.substr(j, jb - j));
      if (na != nb) return na < nb;
      i = ia;
      j = jb;
    } else {
      if (a[i] != b[j]) return a[i] < b[j];
      ++i;
      ++j;
    }
  }
  return a.size() < b.size();
}

}  // namespace

std::vector<const ExperimentInfo*> ExperimentRegistry::all() const {
  std::vector<const ExperimentInfo*> out;
  out.reserve(experiments_.size());
  for (const auto& e : experiments_) out.push_back(&e);
  std::sort(out.begin(), out.end(), [](const ExperimentInfo* a, const ExperimentInfo* b) {
    return natural_less(a->name, b->name);
  });
  return out;
}

// --- Running and rendering ---------------------------------------------------

Json run_experiment(const ExperimentInfo& info, const ExperimentOptions& opts) {
  ExperimentContext ctx(opts);
  Json body = info.run(ctx);
  Json report = Json::object();
  report.set("experiment", info.name);
  report.set("schema_version", kReportSchemaVersion);
  report.set("title", info.title);
  report.set("claim", info.claim);
  Json params = Json::object();
  params.set("trials", opts.trials);  // 0 = per-experiment defaults in effect
  params.set("seed", opts.seed);
  params.set("threads", opts.threads);
  params.set("scale", opts.scale);
  report.set("params", params);
  for (auto& [key, value] : body.mutable_entries()) report.set(key, std::move(value));
  report.set("build_info", obs::build_info_json());
  return report;
}

namespace {

std::string cell_text(const Json& v) {
  switch (v.type()) {
    case Json::Type::kString: return v.as_string();
    case Json::Type::kNumber: {
      const double d = v.as_number();
      char buf[40];
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", d);
      } else {
        std::snprintf(buf, sizeof buf, "%.4g", d);
      }
      return buf;
    }
    case Json::Type::kBool: return v.as_bool() ? "true" : "false";
    default: return "-";
  }
}

/// Renders a report's "rows" array as the aligned table the stand-alone
/// benches used to print, plus "stats" and "notes" afterwards.
void print_human(const Json& report, std::ostream& out) {
  const Json* title = report.find("title");
  const Json* claim = report.find("claim");
  const Json* name = report.find("experiment");
  out << "== " << (name ? name->as_string() : "?") << ": "
      << (title ? title->as_string() : "") << " ==\n";
  if (claim) out << claim->as_string() << "\n";
  out << "\n";

  const Json* rows = report.find("rows");
  if (rows != nullptr && rows->is_array() && !rows->elements().empty()) {
    std::vector<std::string> headers;
    for (const auto& [key, value] : rows->elements().front().entries()) headers.push_back(key);
    Table table(headers);
    for (const auto& row : rows->elements()) {
      std::vector<std::string> cells;
      cells.reserve(headers.size());
      for (const auto& h : headers) {
        const Json* v = row.find(h);
        cells.push_back(v != nullptr ? cell_text(*v) : "-");
      }
      table.add_row(std::move(cells));
    }
    table.print(out);
  }

  const Json* stats = report.find("stats");
  if (stats != nullptr && stats->is_object() && stats->size() > 0) {
    out << "\n";
    for (const auto& [key, value] : stats->entries()) {
      out << "  " << key << " = " << cell_text(value) << "\n";
    }
  }
  const Json* notes = report.find("notes");
  if (notes != nullptr && notes->is_string()) out << "\n" << notes->as_string() << "\n";
  out << "\n";
}

unsigned env_scale() {
  const char* env = std::getenv("RUMOR_BENCH_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return static_cast<unsigned>(std::clamp(v, 1L, 64L));
}

void print_usage(std::ostream& out) {
  out << "usage: rumor_bench [options] (--all | <experiment>...)\n"
         "       rumor_bench --list [--json]\n"
         "       rumor_bench --campaign spec.json [--json] [--threads T] [--batch B]\n"
         "                   [--shard i/k] [--checkpoint FILE [--checkpoint-every N]]\n"
         "                   [--resume FILE]\n"
         "       rumor_bench --campaign spec.json --merge shard1.json shard2.json ...\n"
         "\n"
         "options:\n"
         "  --list           list registered experiments (title, claim, defaults) and exit\n"
         "  --all            run every registered experiment\n"
         "  --json           emit machine-readable JSON instead of tables\n"
         "  --out FILE       write the report to FILE via temp-file + atomic rename\n"
         "  --campaign FILE  run a JSON campaign spec over one shared trial-block queue\n"
         "                   (spec grammar: see bench/README.md)\n"
         "  --batch B        campaign trials per scheduled block (default 32); also the\n"
         "                   checkpoint/shard granularity\n"
         "  --shard i/k      run only shard i of k (deterministic block partition) and\n"
         "                   emit the partial snapshot instead of a report\n"
         "  --checkpoint FILE      write a crash-safe snapshot every --checkpoint-every\n"
         "                         completed blocks (default 16) and at completion\n"
         "  --resume FILE    restore progress from a snapshot; only missing blocks run,\n"
         "                   and the final report is bit-identical to an unbroken run\n"
         "  --stop-after-blocks N  stop after N blocks (exit 3; testing/ops hook)\n"
         "  --merge          fold finished shard snapshots (positional args) into the\n"
         "                   final report (also available as tools/campaign_merge)\n"
         "  --trace FILE     write a Chrome/Perfetto trace of the campaign run to FILE\n"
         "                   (per-worker block/graph-build/merge spans + metrics; fold\n"
         "                   with tools/trace_report.py)\n"
         "  --progress       print live heartbeat lines (blocks done, rate, eta) to\n"
         "                   stderr while the campaign runs; stdout stays parseable\n"
         "  --telemetry      embed a stats.telemetry cost breakdown (campaign wall time,\n"
         "                   per-config blocks/trials/busy time) in campaign reports\n"
         "  --curves         enable spread telemetry on every campaign cell: stats.curves\n"
         "                   informed-count curves, phase decomposition, and contact\n"
         "                   accounting (fold with tools/spread_report.py)\n"
         "  --trials N       override the trial count of every measurement\n"
         "  --seed S         override the root seed (trial i uses stream i)\n"
         "  --threads T      worker threads (0 = hardware concurrency)\n"
         "  --scale K        workload multiplier in [1, 64] (default: $RUMOR_BENCH_SCALE or 1)\n"
         "  --version        print build provenance (git sha, compiler, build type) and exit\n"
         "  --help           this text\n";
}

/// fsync on a directory makes the rename of a child durable. Failure is
/// reported like any other error: a checkpoint that silently is not on disk
/// defeats the whole contract.
bool fsync_parent_dir(const std::string& path, std::string& error) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    error = "cannot open directory " + dir + " for fsync: " + std::strerror(errno);
    return false;
  }
  if (::fsync(fd) != 0) {
    error = "cannot fsync directory " + dir + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

}  // namespace

bool write_file_atomic(const std::string& path, std::span<const std::string_view> parts,
                       std::string& error) {
  // The temp file is a *sibling* of the destination (same directory, hence
  // same filesystem) so the rename is atomic, and pid-unique so concurrent
  // writers with the same destination cannot interleave into one temp file;
  // last rename wins with a complete file either way.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = "cannot open " + tmp + " for writing: " + std::strerror(errno);
    return false;
  }
  auto fail = [&](const std::string& what) {
    error = what;
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  };
  // One writev per IOV_MAX parts; a short write resumes inside the part it
  // stopped in.
  std::vector<::iovec> iov;
  iov.reserve(std::min<std::size_t>(parts.size(), IOV_MAX));
  std::size_t next = 0;     // first part not yet in an iovec batch
  std::size_t offset = 0;   // bytes of parts[next] already written
  while (next < parts.size()) {
    iov.clear();
    for (std::size_t p = next; p < parts.size() && iov.size() < IOV_MAX; ++p) {
      const std::size_t skip = p == next ? offset : 0;
      if (parts[p].size() == skip) continue;
      iov.push_back({const_cast<char*>(parts[p].data()) + skip, parts[p].size() - skip});
    }
    if (iov.empty()) break;
    const ::ssize_t n = ::writev(fd, iov.data(), static_cast<int>(iov.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("short write to " + tmp + ": " + std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(n);
    while (next < parts.size() && left >= parts[next].size() - offset) {
      left -= parts[next].size() - offset;
      offset = 0;
      ++next;
    }
    offset += left;
  }
  // fsync before rename: otherwise a crash can leave the *renamed* file
  // empty (metadata ordered before data), which for a checkpoint is worse
  // than no file at all.
  if (::fsync(fd) != 0) return fail("cannot fsync " + tmp + ": " + std::strerror(errno));
  if (::close(fd) != 0) {
    error = "cannot close " + tmp + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "cannot rename " + tmp + " to " + path + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path, error);
}

bool write_file_atomic(const std::string& path, const std::string& contents,
                       std::string& error) {
  const std::string_view whole = contents;
  return write_file_atomic(path, std::span(&whole, 1), error);
}

int run_bench_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  ExperimentOptions opts;
  opts.scale = env_scale();
  bool list = false;
  bool all = false;
  bool json = false;
  std::string campaign_file;
  std::string out_file;
  std::uint64_t batch = 32;
  bool batch_explicit = false;
  bool merge = false;
  bool shard_explicit = false;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
  std::string checkpoint_file;
  std::uint64_t checkpoint_every = 16;
  std::string resume_file;
  std::uint64_t stop_after_blocks = 0;
  std::string trace_file;
  bool progress = false;
  bool telemetry_stats = false;
  bool curves_flag = false;
  std::vector<std::string> names;

  auto numeric_arg = [&](int& i, const char* flag) -> std::optional<std::uint64_t> {
    if (i + 1 >= argc) {
      err << "rumor_bench: " << flag << " requires a value\n";
      return std::nullopt;
    }
    ++i;
    // strtoull silently wraps negative input ("-5" -> ~1.8e19), so reject
    // any sign character up front.
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(argv[i], &end, 10);
    if (argv[i][0] == '-' || argv[i][0] == '+' || end == argv[i] || *end != '\0') {
      err << "rumor_bench: bad value for " << flag << ": " << argv[i] << "\n";
      return std::nullopt;
    }
    // Values travel through Json's IEEE-double numbers (exact only up to
    // 2^53), so cap CLI inputs where the report could no longer reproduce
    // them exactly.
    if (v > (std::uint64_t{1} << 53)) {
      err << "rumor_bench: " << flag << " must be <= 2^53 (values are recorded as JSON numbers)\n";
      return std::nullopt;
    }
    return v;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(out);
      return 0;
    } else if (arg == "--version") {
      out << obs::build_info_line("rumor_bench") << "\n";
      return 0;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --trace requires a file path\n";
        return 2;
      }
      trace_file = argv[++i];
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--telemetry") {
      telemetry_stats = true;
    } else if (arg == "--curves") {
      curves_flag = true;
    } else if (arg == "--trials") {
      const auto v = numeric_arg(i, "--trials");
      if (!v) return 2;
      if (*v == 0) {  // 0 is the internal "use defaults" sentinel
        err << "rumor_bench: --trials must be >= 1 (omit the flag for per-experiment defaults)\n";
        return 2;
      }
      opts.trials = *v;
    } else if (arg == "--seed") {
      const auto v = numeric_arg(i, "--seed");
      if (!v) return 2;
      if (*v == 0) {  // 0 is the internal "use defaults" sentinel
        err << "rumor_bench: --seed must be >= 1 (omit the flag for per-experiment defaults)\n";
        return 2;
      }
      opts.seed = *v;
    } else if (arg == "--threads") {
      const auto v = numeric_arg(i, "--threads");
      if (!v) return 2;
      opts.threads = static_cast<unsigned>(*v);
    } else if (arg == "--batch") {
      const auto v = numeric_arg(i, "--batch");
      if (!v) return 2;
      if (*v == 0) {
        err << "rumor_bench: --batch must be >= 1\n";
        return 2;
      }
      batch = *v;
      batch_explicit = true;
    } else if (arg == "--shard") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --shard requires a value of the form i/k\n";
        return 2;
      }
      ++i;
      unsigned si = 0;
      unsigned sk = 0;
      char extra = 0;
      // sscanf's %u silently accepts sign characters (strtoul semantics), so
      // screen them out before parsing.
      const bool signless = std::string_view(argv[i]).find_first_of("+-") == std::string_view::npos;
      if (!signless || std::sscanf(argv[i], "%u/%u%c", &si, &sk, &extra) != 2 || si < 1 ||
          si > sk) {
        err << "rumor_bench: --shard wants i/k with 1 <= i <= k, got '" << argv[i] << "'\n";
        return 2;
      }
      shard_index = si;
      shard_count = sk;
      shard_explicit = true;
    } else if (arg == "--merge") {
      merge = true;
    } else if (arg == "--checkpoint") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --checkpoint requires a file path\n";
        return 2;
      }
      checkpoint_file = argv[++i];
    } else if (arg == "--checkpoint-every") {
      const auto v = numeric_arg(i, "--checkpoint-every");
      if (!v) return 2;
      if (*v == 0) {
        err << "rumor_bench: --checkpoint-every must be >= 1\n";
        return 2;
      }
      checkpoint_every = *v;
    } else if (arg == "--resume") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --resume requires a file path\n";
        return 2;
      }
      resume_file = argv[++i];
    } else if (arg == "--stop-after-blocks") {
      const auto v = numeric_arg(i, "--stop-after-blocks");
      if (!v) return 2;
      if (*v == 0) {
        err << "rumor_bench: --stop-after-blocks must be >= 1\n";
        return 2;
      }
      stop_after_blocks = *v;
    } else if (arg == "--campaign") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --campaign requires a file path\n";
        return 2;
      }
      campaign_file = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        err << "rumor_bench: --out requires a file path\n";
        return 2;
      }
      out_file = argv[++i];
    } else if (arg == "--scale") {
      const auto v = numeric_arg(i, "--scale");
      if (!v) return 2;
      opts.scale = static_cast<unsigned>(std::clamp<std::uint64_t>(*v, 1, 64));
    } else if (!arg.empty() && arg.front() == '-') {
      err << "rumor_bench: unknown option " << arg << "\n";
      print_usage(err);
      return 2;
    } else {
      names.emplace_back(arg);
    }
  }

  const auto& registry = ExperimentRegistry::instance();

  // With --out, reports accumulate in a buffer and land on disk in one
  // atomic rename at the end; diagnostics still go to `err` immediately.
  std::ostringstream buffer;
  std::ostream& sink = out_file.empty() ? out : static_cast<std::ostream&>(buffer);
  auto finish = [&]() -> int {
    if (!out_file.empty()) {
      std::string werr;
      if (!write_file_atomic(out_file, buffer.str(), werr)) {
        err << "rumor_bench: " << werr << "\n";
        return 1;
      }
    }
    return 0;
  };

  if (list) {
    if (json) {
      Json arr = Json::array();
      for (const ExperimentInfo* e : registry.all()) {
        Json entry = Json::object();
        entry.set("experiment", e->name);
        entry.set("title", e->title);
        entry.set("claim", e->claim);
        entry.set("defaults", e->defaults);
        arr.push_back(std::move(entry));
      }
      sink << arr.dump(2) << "\n";
    } else {
      for (const ExperimentInfo* e : registry.all()) {
        sink << e->name << "\n    " << e->title << "\n";
        if (!e->claim.empty()) sink << "    claim: " << e->claim << "\n";
        if (!e->defaults.empty()) sink << "    defaults: " << e->defaults << "\n";
      }
    }
    return finish();
  }

  if (campaign_file.empty() &&
      (merge || shard_explicit || !checkpoint_file.empty() || !resume_file.empty() ||
       stop_after_blocks != 0 || !trace_file.empty() || progress || telemetry_stats ||
       curves_flag)) {
    err << "rumor_bench: --merge/--shard/--checkpoint/--resume/--stop-after-blocks/--trace/"
           "--progress/--telemetry/--curves require --campaign\n";
    return 2;
  }

  if (!campaign_file.empty()) {
    // --merge consumes the positionals as shard snapshot files; everything
    // else rejects them as stray experiment names.
    if (all || (!merge && !names.empty())) {
      err << "rumor_bench: --campaign cannot be combined with experiment names or --all\n";
      return 2;
    }
    if (stop_after_blocks != 0 && checkpoint_file.empty()) {
      err << "rumor_bench: --stop-after-blocks requires --checkpoint\n";
      return 2;
    }
    auto spec =
        load_campaign_spec_file(campaign_file, opts.trials, opts.seed, opts.scale, "rumor_bench",
                                err);
    if (!spec) return 2;

    if (curves_flag) {
      // Equivalent to adding a default "curves" block to every cell of the
      // spec; a merge with --curves therefore expects shards that were run
      // with --curves (the snapshot fingerprint covers the curve spec).
      for (std::size_t c = 0; c < spec->configs.size(); ++c) {
        CampaignConfig& cfg = spec->configs[c];
        cfg.curves.enabled = true;
        if (const std::string error = check_config(cfg); !error.empty()) {
          err << "rumor_bench: --curves: configs[" << c << "]: " << error << "\n";
          return 2;
        }
      }
    }

    // Telemetry wiring: any of the three faces instantiates the registry;
    // --telemetry additionally surfaces the snapshot in report stats. The
    // heartbeat goes to `err` (the CLI hands in stderr) so --json stdout
    // stays machine-parseable.
    std::unique_ptr<obs::Telemetry> telemetry;
    if (!trace_file.empty() || progress || telemetry_stats) {
      obs::Telemetry::Options topt;
      topt.trace = !trace_file.empty();
      topt.progress = progress;
      topt.progress_stream = &err;
      telemetry = std::make_unique<obs::Telemetry>(topt);
    }
    std::optional<obs::MetricsSnapshot> telemetry_metrics;

    /// Writes the --trace file once the campaign has run (also on an early
    /// stop, so partial runs are inspectable). Returns false on I/O failure.
    auto finish_telemetry = [&]() -> bool {
      if (telemetry == nullptr) return true;
      telemetry->end();  // idempotent; run_campaign already ended it
      telemetry_metrics = telemetry->snapshot();
      if (!trace_file.empty()) {
        std::string terr;
        if (!telemetry->write_trace(trace_file, &terr)) {
          err << "rumor_bench: " << terr << "\n";
          return false;
        }
      }
      return true;
    };

    auto render_results = [&](const std::vector<CampaignResult>& results) -> int {
      // When both probes and the metrics registry ran for the whole campaign
      // (no resume: a resumed registry only saw this session's blocks), the
      // two independent tick counts must agree exactly — probes fold
      // result.rounds/result.steps per trial, the registry folds the same
      // values per worker.
      if (telemetry_stats && telemetry_metrics.has_value() && resume_file.empty() &&
          !results.empty()) {
        bool all_curves = true;
        std::uint64_t probe_ticks = 0;
        for (const CampaignResult& r : results) {
          all_curves = all_curves && r.has_curves;
          probe_ticks += r.contacts.ticks;
        }
        const std::uint64_t registry_ticks =
            telemetry_metrics->totals.sync_rounds + telemetry_metrics->totals.async_events;
        if (all_curves && probe_ticks != registry_ticks) {
          err << "rumor_bench: engine-tick accounting mismatch: spread probes counted "
              << probe_ticks << " ticks but the metrics registry recorded " << registry_ticks
              << "\n";
          return 1;
        }
      }
      // Each report is decorated and, for --json, dumped on the thread that
      // rendered it; the texts are then spliced in order.
      const int depth = report_depth(results.size());
      std::vector<std::string> texts(json ? results.size() : 0);
      std::vector<Json> human(json ? 0 : results.size());
      render_campaign_reports(results, spec->name, opts.threads, [&](std::size_t i, Json& report) {
        if (telemetry_stats && telemetry_metrics.has_value()) {
          // Results are ordered like the spec's configs, which is exactly
          // the registry's per_config indexing.
          for (auto& [key, value] : report.mutable_entries()) {
            if (key != "stats" || !value.is_object()) continue;
            Json t = Json::object();
            t.set("campaign_wall_ms", static_cast<double>(telemetry_metrics->wall_ns) / 1e6);
            if (i < telemetry_metrics->per_config.size()) {
              const obs::ConfigCost& cost = telemetry_metrics->per_config[i];
              t.set("blocks", cost.blocks);
              t.set("trials", cost.trials);
              t.set("busy_ms", static_cast<double>(cost.busy_ns) / 1e6);
            }
            if (results[i].has_curves) t.set("engine_ticks", results[i].contacts.ticks);
            value.set("telemetry", std::move(t));
          }
        }
        if (json) {
          report.dump_to(texts[i], 2, depth);
        } else {
          human[i] = std::move(report);
        }
      });
      if (json) {
        for (const std::string_view part : report_json_parts(texts)) sink << part;
      } else {
        for (const Json& report : human) print_human(report, sink);
      }
      return finish();
    };

    if (merge) {
      if (shard_explicit || !checkpoint_file.empty() || !resume_file.empty() ||
          !trace_file.empty() || progress || telemetry_stats) {
        err << "rumor_bench: --merge cannot be combined with "
               "--shard/--checkpoint/--resume/--trace/--progress/--telemetry\n";
        return 2;
      }
      if (names.empty()) {
        err << "rumor_bench: --merge needs shard snapshot files as positional arguments\n";
        return 2;
      }
      std::vector<Json> snapshots;
      for (const std::string& f : names) {
        auto doc = json::read_json_file(f, "rumor_bench", err);
        if (!doc) return 2;
        snapshots.push_back(std::move(*doc));
      }
      // Tolerated, but reported: shards whose snapshots were written far
      // apart usually mean a forgotten re-run of one shard after a spec or
      // binary change (warnings only; byte-determinism makes mixing safe
      // when the inputs really are the same).
      report_stale_snapshots(snapshots, names, "rumor_bench", err);
      std::vector<CampaignResult> results;
      try {
        results = merge_campaign_snapshots(spec->configs, spec->name, snapshots);
      } catch (const std::exception& e) {
        err << "rumor_bench: merge failed: " << e.what() << "\n";
        return 1;
      }
      return render_results(results);
    }

    CampaignOptions campaign_options;
    campaign_options.threads = opts.threads;
    campaign_options.block_size = batch;
    campaign_options.shard_index = shard_index;
    campaign_options.shard_count = shard_count;
    campaign_options.checkpoint_file = checkpoint_file;
    campaign_options.checkpoint_every = checkpoint_every;
    campaign_options.stop_after_blocks = stop_after_blocks;
    campaign_options.telemetry = telemetry.get();
    campaign_options.telemetry_label = spec->name;

    const bool featured =
        shard_explicit || !checkpoint_file.empty() || !resume_file.empty() ||
        stop_after_blocks != 0;
    if (!featured) {
      // The historical path: no snapshot layer, byte-identical output.
      std::vector<CampaignResult> results;
      try {
        results = run_campaign(spec->configs, campaign_options);
      } catch (const std::exception& e) {
        err << "rumor_bench: campaign failed: " << e.what() << "\n";
        return 1;
      }
      if (!finish_telemetry()) return 1;
      return render_results(results);
    }

    std::optional<Json> resume_doc;
    if (!resume_file.empty()) {
      resume_doc = json::read_json_file(resume_file, "rumor_bench", err);
      if (!resume_doc) return 2;
      // A resume adopts the checkpoint's own block size and shard
      // assignment unless the flags are repeated explicitly (in which case
      // the loader validates that they match the snapshot).
      try {
        const SnapshotLayout layout = snapshot_layout(*resume_doc);
        if (!batch_explicit) campaign_options.block_size = layout.block_size;
        if (!shard_explicit) {
          campaign_options.shard_index = layout.shard_index;
          campaign_options.shard_count = layout.shard_count;
        }
      } catch (const std::exception& e) {
        err << "rumor_bench: campaign failed: " << e.what() << "\n";
        return 1;
      }
    }

    // A shard emits its partial snapshot, not a report; campaign_merge (or
    // rumor_bench --merge) folds the partials into the final report. Only
    // then is the snapshot document built.
    const bool shard_output = campaign_options.shard_count > 1 || shard_explicit;
    CampaignOutcome outcome;
    try {
      outcome = run_campaign_recorded(spec->configs, campaign_options, spec->name,
                                      resume_doc ? &*resume_doc : nullptr, shard_output);
    } catch (const std::exception& e) {
      err << "rumor_bench: campaign failed: " << e.what() << "\n";
      return 1;
    }
    if (!finish_telemetry()) return 1;
    if (!outcome.complete) {
      err << "rumor_bench: campaign stopped after " << outcome.blocks_done
          << " blocks; progress saved to " << checkpoint_file << " (continue with --resume "
          << checkpoint_file << ")\n";
      return 3;
    }
    if (shard_output) {
      sink << outcome.snapshot.dump(2) << "\n";
      return finish();
    }
    return render_results(outcome.results);
  }

  std::vector<const ExperimentInfo*> selected;
  if (all) {
    selected = registry.all();
  } else {
    if (names.empty()) {
      err << "rumor_bench: no experiments selected\n";
      print_usage(err);
      return 2;
    }
    for (const auto& name : names) {
      const ExperimentInfo* e = registry.find(name);
      if (e == nullptr) {
        err << "rumor_bench: unknown experiment '" << name << "' (see --list)\n";
        return 2;
      }
      selected.push_back(e);
    }
  }

  Json reports = Json::array();
  for (const ExperimentInfo* e : selected) {
    Json report = run_experiment(*e, opts);
    if (json) {
      reports.push_back(std::move(report));
    } else {
      print_human(report, sink);
    }
  }
  if (json) {
    // A single selected experiment emits its object directly (the common
    // scripted case); multiple selections emit the array.
    if (reports.size() == 1) {
      sink << reports.elements().front().dump(2) << "\n";
    } else {
      sink << reports.dump(2) << "\n";
    }
  }
  return finish();
}

}  // namespace rumor::sim
