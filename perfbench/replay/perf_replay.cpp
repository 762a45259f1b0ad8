// perf_replay: the benchmark's in-process view of a campaign workload.
//
// It replays a campaign spec through the library's public functions — the
// same calls, seeds and fold order as `rumor_bench --campaign` — and
// compares the result with the report that process wrote:
//
//   perf_replay count --spec FILE
//       Prints the expanded spec's configuration and trial counts.
//   perf_replay setup --spec FILE
//       Loads and expands the spec and builds or maps every graph, as a
//       campaign does before its first trial; repeats that for
//       kSetupSeconds and prints the fastest repetition.
//   perf_replay check --spec FILE --report FILE [--batch B] [--threads T]
//       Replays every trial (T worker threads) and checks the report.
//   perf_replay trace --spec FILE --report FILE [--batch B] [--checkpoint-every N]
//       The traced run: the same replay on one thread, timing each call
//       into graph, core, stats, sim, dist and rng. Prints the check, the
//       per-layer metrics and a ledger whose self times must add up to the
//       replay's wall time within kLedgerResidual — exit 1 when they do not.
//
// Checks: every sync/async/batch_sync cell's mean, p95, hp_time, min and
// max must be bit-equal to the replay's (both sides run trial t on
// derive_stream(seed, t) and fold blocks in slot order); every batch_sync
// cell must pass dist::ks_gate against its sync twin (same graph and mode);
// and the whole report must be byte-identical to the replay's rendering.
// Output is one JSON document on stdout. Paths in the spec resolve against
// the working directory, like they do for rumor_bench.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_sync.hpp"
#include "core/spread_probe.hpp"
#include "core/trial.hpp"
#include "dist/distributions.hpp"
#include "graph/graph.hpp"
#include "graph/graph_store.hpp"
#include "ledger.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "stats/streaming.hpp"

namespace {

using perfbench::Clock;
using perfbench::elapsed_ns;
using perfbench::Ledger;
using rumor::graph::Graph;
using rumor::sim::CampaignConfig;
using rumor::sim::EngineKind;
using rumor::sim::Json;

/// The traced replay's layer self times must cover its wall time within this share.
constexpr double kLedgerResidual = 0.03;
/// One `setup` call repeats the set-up for this long (and at least kSetupMinReps times).
constexpr double kSetupSeconds = 0.3;
constexpr std::uint64_t kSetupMinReps = 3;
/// Significance level of the batch_sync-vs-sync KS gate.
constexpr double kKsAlpha = 1e-6;

struct Args {
  std::string mode;
  std::string spec;
  std::string report;
  unsigned threads = 1;
  std::uint64_t batch = 32;
  std::uint64_t checkpoint_every = 0;  // trace: > 0 also times run_campaign_resumable
};

int usage() {
  std::cerr << "usage: perf_replay count --spec FILE\n"
               "       perf_replay setup --spec FILE\n"
               "       perf_replay check --spec FILE --report FILE [--batch B] [--threads T]\n"
               "       perf_replay trace --spec FILE --report FILE [--batch B] "
               "[--checkpoint-every N]\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.mode = argv[1];
  if (a.mode != "count" && a.mode != "setup" && a.mode != "check" && a.mode != "trace") {
    return std::nullopt;
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--spec") a.spec = value;
      else if (key == "--report") a.report = value;
      else if (key == "--threads") a.threads = static_cast<unsigned>(std::stoul(value));
      else if (key == "--batch") a.batch = std::stoull(value);
      else if (key == "--checkpoint-every") a.checkpoint_every = std::stoull(value);
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 0 || a.spec.empty() || a.batch == 0 || a.threads == 0) return std::nullopt;
  if ((a.mode == "check" || a.mode == "trace") && a.report.empty()) return std::nullopt;
  return a;
}

rumor::sim::CampaignSpec load_spec(const std::string& path) {
  auto spec = rumor::sim::load_campaign_spec_file(path, 0, 0, 1, "perf_replay", std::cerr);
  if (!spec) throw std::runtime_error("cannot load campaign spec " + path);
  for (const CampaignConfig& cfg : spec->configs) {
    const bool engine_ok = cfg.engine == EngineKind::kSync || cfg.engine == EngineKind::kAsync ||
                           cfg.engine == EngineKind::kBatchSync;
    if (!engine_ok || cfg.source_policy != rumor::sim::SourcePolicy::kFixed ||
        !cfg.dynamics.is_static() || cfg.curves.enabled || cfg.prebuilt != nullptr) {
      throw std::runtime_error("spec " + path +
                               ": the replay covers fixed-source static sync/async/batch_sync "
                               "cells without curves");
    }
  }
  return std::move(*spec);
}

/// What the traced replay records: the ledger of timed calls, and the counts
/// the per-layer metrics divide them by.
struct Trace {
  Ledger ledger;
  rumor::core::SpreadProbe probe;
  std::set<std::string> walked;  // graphs walked so far: a store path or a config index
  std::uint64_t walk_sink = 0;
  std::uint64_t warm_steps = 0;
  std::uint64_t faults = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t merges = 0;
  std::uint64_t folded = 0;
};

/// Adds the time since `begin` to `name` in the trace's ledger, when tracing.
void lap(Trace* trace, const std::string& name, Clock::time_point begin) {
  if (trace != nullptr) trace->ledger.add(name, elapsed_ns(begin, Clock::now()));
}

/// The graphs a campaign materializes: one per configuration, except that
/// every configuration naming one store file shares its single mapping.
class GraphSet {
 public:
  std::shared_ptr<const Graph> get(const CampaignConfig& cfg, Trace* trace) {
    const bool file = cfg.graph.family == "file";
    if (file) {
      if (auto it = files_.find(cfg.graph.path); it != files_.end()) return it->second;
    }
    const auto begin = Clock::now();
    auto g = std::make_shared<const Graph>(file ? rumor::graph::open_graph_store(cfg.graph.path)
                                                : rumor::sim::build_graph(cfg.graph, cfg.seed));
    lap(trace, file ? "graph.open" : "graph.build", begin);
    if (file) files_.emplace(cfg.graph.path, g);
    return g;
  }

  /// CSR bytes of `g` as the store format lays it out (file size for a store).
  static std::uint64_t csr_bytes(const CampaignConfig& cfg, const Graph& g) {
    if (cfg.graph.family == "file") return rumor::graph::read_graph_store_info(cfg.graph.path).file_size;
    return (std::uint64_t{g.num_nodes()} + 1) * sizeof(std::uint64_t) +
           std::uint64_t{2} * g.num_edges() * sizeof(rumor::graph::NodeId);
  }

  void clear() { files_.clear(); }

 private:
  std::map<std::string, std::shared_ptr<const Graph>> files_;
};

/// Trials [begin, end) of one configuration: one block of the campaign's slot grid.
struct Block {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct BlockOut {
  rumor::stats::StreamingSummary partial;
  std::vector<double> values;
  std::uint64_t ticks = 0;
  std::uint64_t core_ns = 0;
  std::uint64_t fold_ns = 0;
  bool completed = true;
};

std::vector<Block> blocks_of(const CampaignConfig& cfg, std::uint64_t batch) {
  const std::uint64_t bs = rumor::sim::effective_block_size(cfg, batch);
  std::vector<Block> out;
  for (std::uint64_t b = 0; b < cfg.trials; b += bs) out.push_back({b, std::min(b + bs, cfg.trials)});
  return out;
}

/// One trial block exactly as the campaign scheduler runs it: trial t on
/// derive_stream(seed, t), or one lane batch seeded by the block's first
/// trial; then the block's values folded into a fresh partial in trial order.
BlockOut run_block(const CampaignConfig& cfg, const Graph& g, const Block& b) {
  BlockOut out;
  out.values.reserve(b.end - b.begin);
  const auto t0 = Clock::now();
  if (cfg.engine == EngineKind::kBatchSync) {
    rumor::core::BatchSyncOptions options;
    options.mode = cfg.mode;
    options.message_loss = cfg.message_loss;
    options.lanes = static_cast<std::uint32_t>(b.end - b.begin);
    rumor::rng::Engine eng = rumor::rng::derive_stream(cfg.seed, b.begin);
    const rumor::core::BatchSyncResult r = rumor::core::run_batch_sync(g, cfg.source, eng, options);
    out.completed = r.completed;
    out.ticks = r.total_rounds;
    for (std::uint32_t l = 0; l < r.lanes; ++l) out.values.push_back(static_cast<double>(r.rounds[l]));
  } else {
    rumor::core::TrialOptions options;
    options.mode = cfg.mode;
    options.message_loss = cfg.message_loss;
    rumor::core::TrialExtras extras;
    extras.view = cfg.view;
    extras.aux = cfg.aux;
    for (std::uint64_t t = b.begin; t < b.end; ++t) {
      rumor::rng::Engine eng = rumor::rng::derive_stream(cfg.seed, t);
      const rumor::core::TrialOutcome r =
          rumor::core::run_trial(cfg.engine, g, cfg.source, eng, options, extras);
      out.completed = out.completed && r.completed;
      out.ticks += r.ticks;
      out.values.push_back(r.value);
    }
  }
  const auto t1 = Clock::now();
  const rumor::sim::CampaignOptions defaults;
  out.partial = rumor::stats::StreamingSummary(
      rumor::sim::summary_options_for(cfg, defaults.sketch_capacity, defaults.reservoir_capacity));
  for (std::size_t i = 0; i < out.values.size(); ++i) out.partial.add(out.values[i], b.begin + i);
  out.core_ns = elapsed_ns(t0, t1);
  out.fold_ns = elapsed_ns(t1, Clock::now());
  return out;
}

/// Runs `blocks` on `threads` workers (inline on the caller's thread for
/// one); the outputs come back in slot order.
std::vector<BlockOut> run_blocks(const CampaignConfig& cfg, const Graph& g,
                                 const std::vector<Block>& blocks, unsigned threads) {
  std::vector<BlockOut> outs(blocks.size());
  if (threads == 1) {
    for (std::size_t i = 0; i < blocks.size(); ++i) outs[i] = run_block(cfg, g, blocks[i]);
    return outs;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  {
    std::vector<std::jthread> pool;
    for (unsigned w = 0; w < threads; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < blocks.size(); i = next.fetch_add(1)) {
          try {
            outs[i] = run_block(cfg, g, blocks[i]);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
            next.store(blocks.size());
          }
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
  return outs;
}

/// Per-configuration replay results.
struct Cell {
  rumor::sim::CampaignResult result;
  std::vector<double> values;                // every trial, in trial order
  std::vector<double> block_ns_per_trial;    // engine time per trial, per block
  std::uint64_t ticks = 0;
  std::uint64_t core_ns = 0;
  bool completed = true;
  bool ok = true;
  std::string detail;
};

/// Folds one configuration's block outputs in slot order into its result.
void finish_cell(Cell& cell, const CampaignConfig& cfg, std::size_t index, const Graph& g,
                 std::vector<BlockOut>& outs, Trace* trace) {
  for (const BlockOut& o : outs) {
    cell.values.insert(cell.values.end(), o.values.begin(), o.values.end());
    cell.block_ns_per_trial.push_back(static_cast<double>(o.core_ns) /
                                      static_cast<double>(o.values.size()));
    cell.ticks += o.ticks;
    cell.core_ns += o.core_ns;
    cell.completed = cell.completed && o.completed;
  }
  const auto begin = Clock::now();
  rumor::stats::StreamingSummary total = std::move(outs.front().partial);
  for (std::size_t s = 1; s < outs.size(); ++s) total.merge(outs[s].partial);
  lap(trace, "stats.merge", begin);
  cell.result = rumor::sim::campaign_result_skeleton(cfg, index);
  cell.result.graph_name = g.name();
  cell.result.n = g.num_nodes();
  cell.result.summary = std::move(total);
  if (!cell.completed) {
    cell.ok = false;
    cell.detail = "a trial hit the tick cap";
  }
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// A random walk through Graph::random_neighbor: each step depends on the
/// last, so it measures the latency of one neighbor fetch.
std::uint64_t walk(const Graph& g, std::uint64_t steps, std::uint64_t seed) {
  rumor::rng::Engine eng = rumor::rng::derive_stream(seed, 0x77616c6bULL);
  rumor::graph::NodeId v = 0;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    v = g.random_neighbor(v, eng);
    sink += v;
  }
  return sink;
}

/// First pass over a graph: a cold walk (its page faults are the graph's
/// first touch), then the same walk again warm for the timing.
void walk_graph(Trace& trace, const CampaignConfig& cfg, std::size_t index, const Graph& g) {
  const std::string key = cfg.graph.family == "file" ? "file:" + cfg.graph.path : std::to_string(index);
  if (!trace.walked.insert(key).second) return;
  const std::uint64_t steps =
      std::clamp<std::uint64_t>(g.num_nodes(), std::uint64_t{1} << 16, std::uint64_t{1} << 22);
  const std::uint64_t faults_before = minor_faults();
  auto begin = Clock::now();
  trace.walk_sink += walk(g, steps, cfg.seed);
  lap(&trace, "graph.walk_cold", begin);
  trace.faults += minor_faults() - faults_before;
  begin = Clock::now();
  trace.walk_sink += walk(g, steps, cfg.seed);
  lap(&trace, "graph.walk", begin);
  trace.warm_steps += steps;
  trace.store_bytes += GraphSet::csr_bytes(cfg, g);
}

/// Contact accounting: the first block's trials again, SpreadProbe attached.
void count_contacts(Trace& trace, const CampaignConfig& cfg, const Graph& g, std::uint64_t batch) {
  const auto begin = Clock::now();
  rumor::core::TrialOptions options;
  options.mode = cfg.mode;
  options.message_loss = cfg.message_loss;
  options.probe = &trace.probe;
  rumor::core::TrialExtras extras;
  extras.view = cfg.view;
  const std::uint64_t n = std::min(cfg.trials, rumor::sim::effective_block_size(cfg, batch));
  for (std::uint64_t t = 0; t < n; ++t) {
    rumor::rng::Engine eng = rumor::rng::derive_stream(cfg.seed, t);
    (void)rumor::core::run_trial(cfg.engine, g, cfg.source, eng, options, extras);
  }
  lap(&trace, "core.probe", begin);
}

/// Keeps the timed loops' results observable so they are not optimized out.
volatile std::uint64_t g_sink = 0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares the report's row statistics of every cell with the replay's.
void check_cells(std::vector<Cell>& cells, const Json& report, const std::string& campaign) {
  // rumor_bench prints a one-configuration campaign as a bare object.
  const bool single = report.is_object() && cells.size() == 1;
  if (!single && (!report.is_array() || report.size() != cells.size())) {
    for (Cell& c : cells) {
      c.ok = false;
      c.detail = "report is not an array of one report per configuration";
    }
    return;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& c = cells[i];
    const Json& rep = single ? report : report.elements()[i];
    const Json* experiment = rep.find("experiment");
    const Json* rows = rep.find("rows");
    if (experiment == nullptr || !experiment->is_string() ||
        experiment->as_string() != campaign + "/" + c.result.id || rows == nullptr ||
        !rows->is_array() || rows->size() != 1) {
      c.ok = false;
      c.detail = "report entry " + std::to_string(i) + " is not configuration " + c.result.id;
      continue;
    }
    const Json& row = rows->elements().front();
    const rumor::stats::StreamingSummary& s = c.result.summary;
    const std::pair<const char*, double> expected[] = {
        {"mean", s.mean()},
        {"p95", s.quantile(0.95)},
        {"hp_time", s.hp_time(c.result.hp_q)},
        {"min", s.min()},
        {"max", s.max()},
    };
    for (const auto& [key, value] : expected) {
      const Json* got = row.find(key);
      if (got == nullptr || !got->is_number() || !bit_equal(got->as_number(), value)) {
        c.ok = false;
        std::ostringstream msg;
        msg.precision(17);
        msg << key << ": report " << (got != nullptr && got->is_number() ? got->as_number() : 0.0)
            << " != replay " << value;
        c.detail = msg.str();
        break;
      }
    }
  }
}

bool same_graph(const CampaignConfig& a, const CampaignConfig& b) {
  const rumor::sim::GraphSpec& x = a.graph;
  const rumor::sim::GraphSpec& y = b.graph;
  return x.family == y.family && x.path == y.path && x.n == y.n && x.p == y.p &&
         x.degree == y.degree && x.beta == y.beta && x.average_degree == y.average_degree &&
         (x.graph_seed != 0 ? x.graph_seed : a.seed) == (y.graph_seed != 0 ? y.graph_seed : b.seed);
}

/// Index of the sync configuration on the same graph and mode as `c`.
std::optional<std::size_t> sync_twin(const std::vector<CampaignConfig>& configs, std::size_t c) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].engine == EngineKind::kSync && configs[i].mode == configs[c].mode &&
        configs[i].message_loss == configs[c].message_loss && same_graph(configs[i], configs[c])) {
      return i;
    }
  }
  return std::nullopt;
}

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Engine costs per kind, and the batch engine's per-trial speedup over its
/// sync twin on the same graph: pooled over all twins, and per graph family
/// as the median and quartiles of the per-block ratios.
Json core_metrics(const std::vector<Cell>& cells, const std::vector<CampaignConfig>& configs) {
  struct Sum {
    double ns = 0.0;
    double trials = 0.0;
    double ticks = 0.0;
  };
  std::map<EngineKind, Sum> sums;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    Sum& s = sums[configs[c].engine];
    s.ns += static_cast<double>(cells[c].core_ns);
    s.trials += static_cast<double>(cells[c].values.size());
    s.ticks += static_cast<double>(cells[c].ticks);
  }
  Json m = Json::object();
  double core_ns = 0.0;
  for (const auto& [kind, s] : sums) core_ns += s.ns;
  m.set("core.engine_s", core_ns / 1e9);
  const Sum sync = sums[EngineKind::kSync];
  const Sum async = sums[EngineKind::kAsync];
  const Sum batch = sums[EngineKind::kBatchSync];
  m.set("core.sync.us_per_trial", ratio(sync.ns / 1e3, sync.trials));
  m.set("core.sync.ns_per_round", ratio(sync.ns, sync.ticks));
  m.set("core.sync.rounds_per_trial", ratio(sync.ticks, sync.trials));
  m.set("core.async.us_per_trial", ratio(async.ns / 1e3, async.trials));
  m.set("core.async.ns_per_event", ratio(async.ns, async.ticks));
  m.set("core.async.events_per_trial", ratio(async.ticks, async.trials));
  m.set("core.batch_sync.us_per_trial", ratio(batch.ns / 1e3, batch.trials));

  Sum twin_sync;
  Sum twin_batch;
  Json per_family = Json::object();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (configs[c].engine != EngineKind::kBatchSync) continue;
    const auto twin = sync_twin(configs, c);
    if (!twin) continue;
    twin_sync.ns += static_cast<double>(cells[*twin].core_ns);
    twin_sync.trials += static_cast<double>(cells[*twin].values.size());
    twin_batch.ns += static_cast<double>(cells[c].core_ns);
    twin_batch.trials += static_cast<double>(cells[c].values.size());
    const auto& s = cells[*twin].block_ns_per_trial;
    const auto& b = cells[c].block_ns_per_trial;
    std::vector<double> ratios;
    for (std::size_t i = 0; i < std::min(s.size(), b.size()); ++i) ratios.push_back(ratio(s[i], b[i]));
    Json q = Json::object();
    q.set("median", quantile_of(ratios, 0.5));
    q.set("q1", quantile_of(ratios, 0.25));
    q.set("q3", quantile_of(ratios, 0.75));
    q.set("blocks", static_cast<std::uint64_t>(ratios.size()));
    q.set("graph", cells[c].result.graph_name);
    per_family.set(configs[c].graph.family, std::move(q));
  }
  m.set("core.batch_sync.speedup",
        ratio(ratio(twin_sync.ns, twin_sync.trials), ratio(twin_batch.ns, twin_batch.trials)));
  m.set("core.batch_sync.speedup_by_family", std::move(per_family));
  return m;
}

Json render_reports(const std::vector<rumor::sim::CampaignResult>& results,
                    const std::string& campaign, Trace* trace, std::string& bytes) {
  auto begin = Clock::now();
  Json reports = Json::array();
  for (const auto& r : results) reports.push_back(rumor::sim::campaign_report(r, campaign));
  lap(trace, "sim.report", begin);
  begin = Clock::now();
  bytes = (reports.size() == 1 ? reports.elements().front().dump(2) : reports.dump(2)) + "\n";
  lap(trace, "sim.json_dump", begin);
  return reports;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// KS gates of every batch_sync cell against its sync twin; failures mark
/// the batch cell. Returns one entry per gate.
Json ks_gates(std::vector<Cell>& cells, const std::vector<CampaignConfig>& configs, Trace* trace) {
  const auto begin = Clock::now();
  Json out = Json::array();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (configs[c].engine != EngineKind::kBatchSync) continue;
    Json gate = Json::object();
    gate.set("id", cells[c].result.id);
    const auto twin = sync_twin(configs, c);
    if (!twin) {
      cells[c].ok = false;
      cells[c].detail = "no sync twin on the same graph and mode";
      gate.set("pass", false);
      out.push_back(std::move(gate));
      continue;
    }
    const rumor::dist::KsTest test =
        rumor::dist::ks_two_sample_test(cells[c].values, cells[*twin].values);
    const bool pass = rumor::dist::ks_gate(cells[c].values, cells[*twin].values, kKsAlpha);
    gate.set("twin", cells[*twin].result.id);
    gate.set("statistic", test.statistic);
    gate.set("p_value", test.p_value);
    gate.set("alpha", kKsAlpha);
    gate.set("pass", pass);
    if (!pass && cells[c].ok) {
      cells[c].ok = false;
      cells[c].detail = "KS gate against " + cells[*twin].result.id + " failed";
    }
    out.push_back(std::move(gate));
  }
  lap(trace, "dist.ks_gate", begin);
  return out;
}

/// The replay's outcome: every cell checked against the report file.
struct Replayed {
  std::vector<Cell> cells;
  Json ks;
  std::string report_bytes;  // the report file
  std::string rendered;      // the replay's own rendering of the report
  bool report_equal = false;
};

/// Replays the campaign: each configuration's graph is built or mapped, its
/// blocks run on `threads` workers and fold in slot order; then the KS gates
/// run and the report is rendered and compared with args.report. With a
/// trace (the traced run, on one thread) every call is timed into its ledger,
/// each graph is walked once and each sync/async cell's contacts counted.
Replayed replay(const rumor::sim::CampaignSpec& spec, const Args& args, unsigned threads,
                Trace* trace) {
  const auto& configs = spec.configs;
  Replayed r;
  r.cells.resize(configs.size());
  GraphSet graphs;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CampaignConfig& cfg = configs[c];
    std::shared_ptr<const Graph> g = graphs.get(cfg, trace);
    if (trace != nullptr) walk_graph(*trace, cfg, c, *g);
    std::vector<BlockOut> outs = run_blocks(cfg, *g, blocks_of(cfg, args.batch), threads);
    if (trace != nullptr) {
      const std::string core_name = std::string("core.") + rumor::core::engine_name(cfg.engine);
      for (const BlockOut& o : outs) {
        trace->ledger.add(core_name, o.core_ns);
        trace->ledger.add("stats.fold", o.fold_ns);
        trace->folded += o.values.size();
      }
      trace->merges += outs.size() - 1;
    }
    finish_cell(r.cells[c], cfg, c, *g, outs, trace);
    if (trace != nullptr && cfg.engine != EngineKind::kBatchSync) {
      count_contacts(*trace, cfg, *g, args.batch);
    }
    const auto begin = Clock::now();
    g.reset();
    lap(trace, "graph.free", begin);
  }

  r.ks = ks_gates(r.cells, configs, trace);
  std::vector<rumor::sim::CampaignResult> results;
  for (const Cell& c : r.cells) results.push_back(c.result);
  render_reports(results, spec.name, trace, r.rendered);

  auto begin = Clock::now();
  r.report_bytes = read_file(args.report);
  lap(trace, "bench.read", begin);
  begin = Clock::now();
  const auto report = Json::parse(r.report_bytes);
  lap(trace, "sim.json_parse", begin);
  begin = Clock::now();
  check_cells(r.cells, report ? *report : Json(), spec.name);
  r.report_equal = r.rendered == r.report_bytes;
  lap(trace, "bench.check", begin);
  begin = Clock::now();
  graphs.clear();
  lap(trace, "graph.free", begin);
  return r;
}

Json check_json(const Replayed& r, const std::vector<CampaignConfig>& configs) {
  Json out = Json::object();
  Json arr = Json::array();
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    Json c = Json::object();
    c.set("id", r.cells[i].result.id);
    c.set("engine", rumor::core::engine_name(configs[i].engine));
    c.set("trials", configs[i].trials);
    c.set("ok", r.cells[i].ok);
    c.set("detail", r.cells[i].detail);
    arr.push_back(std::move(c));
  }
  out.set("cells", std::move(arr));
  out.set("ks", r.ks);
  out.set("report_bytes_equal", r.report_equal);
  return out;
}

int run_count(const Args& args) {
  const rumor::sim::CampaignSpec spec = load_spec(args.spec);
  std::uint64_t trials = 0;
  for (const CampaignConfig& cfg : spec.configs) trials += cfg.trials;
  Json out = Json::object();
  out.set("configs", static_cast<std::uint64_t>(spec.configs.size()));
  out.set("trials", trials);
  std::cout << out.dump() << "\n";
  return 0;
}

/// Prints the fastest repetition: the one least disturbed by the rest of
/// the machine.
int run_setup(const Args& args) {
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t reps = 0;
  const auto start = Clock::now();
  do {
    GraphSet graphs;
    std::vector<std::shared_ptr<const Graph>> held;
    const auto begin = Clock::now();
    const rumor::sim::CampaignSpec spec = load_spec(args.spec);
    for (const CampaignConfig& cfg : spec.configs) held.push_back(graphs.get(cfg, nullptr));
    best = std::min(best, static_cast<double>(elapsed_ns(begin, Clock::now())) / 1e9);
    ++reps;
  } while (reps < kSetupMinReps ||
           static_cast<double>(elapsed_ns(start, Clock::now())) / 1e9 < kSetupSeconds);
  Json out = Json::object();
  out.set("setup_s", best);
  out.set("reps", reps);
  std::cout << out.dump() << "\n";
  return 0;
}

int run_check(const Args& args) {
  const rumor::sim::CampaignSpec spec = load_spec(args.spec);
  const Replayed r = replay(spec, args, args.threads, nullptr);
  std::cout << check_json(r, spec.configs).dump(2) << "\n";
  return 0;
}

int run_trace(const Args& args) {
  Trace trace;
  Ledger& ledger = trace.ledger;
  const auto start = Clock::now();

  // rng: the machine reference every other per-primitive cost can be read against.
  constexpr std::uint64_t kRngDraws = std::uint64_t{1} << 25;
  std::uint64_t rng_sink = 0;
  auto begin = Clock::now();
  {
    rumor::rng::Engine eng = rumor::rng::derive_stream(1, 2);
    for (std::uint64_t i = 0; i < kRngDraws; ++i) rng_sink ^= eng.next();
  }
  lap(&trace, "rng.next", begin);

  begin = Clock::now();
  const rumor::sim::CampaignSpec spec = load_spec(args.spec);
  lap(&trace, "sim.spec_parse", begin);
  const auto& configs = spec.configs;

  Replayed r = replay(spec, args, 1, &trace);
  std::uint64_t renders = 1;
  const double report_mb = static_cast<double>(r.rendered.size()) / 1e6;

  // The checkpointed path: the whole campaign through run_campaign_resumable
  // on one thread, then one snapshot rendered and written durably.
  std::optional<bool> resumable_equal;
  double snapshot_mb = 0.0;
  if (args.checkpoint_every > 0) {
    const std::string ck = "replay_checkpoint.json";
    rumor::sim::CampaignOptions options;
    options.threads = 1;
    options.block_size = args.batch;
    options.checkpoint_file = ck;
    options.checkpoint_every = args.checkpoint_every;
    rumor::sim::CampaignOutcome outcome;
    {
      const Ledger::Span span(ledger, "sim.campaign_resumable");
      outcome = rumor::sim::run_campaign_resumable(configs, options, spec.name);
    }
    std::string resumed;
    render_reports(outcome.results, spec.name, &trace, resumed);
    ++renders;
    begin = Clock::now();
    resumable_equal = resumed == r.report_bytes;
    lap(&trace, "bench.check", begin);
    begin = Clock::now();
    const std::string snapshot = outcome.snapshot.dump(2) + "\n";
    lap(&trace, "sim.snapshot_render", begin);
    snapshot_mb = static_cast<double>(snapshot.size()) / 1e6;
    begin = Clock::now();
    std::string error;
    if (!rumor::sim::write_file_atomic(ck, snapshot, error)) throw std::runtime_error(error);
    lap(&trace, "sim.durable_write", begin);
  }

  begin = Clock::now();
  Json m = core_metrics(r.cells, configs);
  const Json check = check_json(r, configs);
  lap(&trace, "bench.summary", begin);
  begin = Clock::now();
  r.cells.clear();
  lap(&trace, "graph.free", begin);
  const std::uint64_t wall_ns = elapsed_ns(start, Clock::now());
  g_sink = rng_sink ^ trace.walk_sink;

  // --- per-layer metrics -----------------------------------------------------
  auto ms = [&](const char* name) { return static_cast<double>(ledger.get(name).total_ns) / 1e6; };
  m.set("graph.build_ms", ms("graph.build"));
  m.set("graph.open_ms", ms("graph.open"));
  m.set("graph.neighbor_ns", ratio(static_cast<double>(ledger.get("graph.walk").total_ns),
                                 static_cast<double>(trace.warm_steps)));
  m.set("graph.minor_faults", trace.faults);
  m.set("graph.store_mb", static_cast<double>(trace.store_bytes) / 1e6);
  m.set("stats.fold_ns_per_trial", ratio(static_cast<double>(ledger.get("stats.fold").total_ns),
                                       static_cast<double>(trace.folded)));
  m.set("stats.merge_us_per_block",
        ratio(ms("stats.merge") * 1e3, static_cast<double>(trace.merges)));
  m.set("sim.spec_parse_ms", ms("sim.spec_parse"));
  m.set("sim.report_ms", (ms("sim.report") + ms("sim.json_dump")) / static_cast<double>(renders));
  m.set("sim.report_mb", report_mb);
  m.set("sim.snapshot_render_ms", ms("sim.snapshot_render"));
  m.set("sim.snapshot_mb", snapshot_mb);
  m.set("sim.durable_write_ms", ms("sim.durable_write"));
  m.set("sim.campaign_resumable_s", ms("sim.campaign_resumable") / 1e3);
  m.set("rng.next_ns", ratio(static_cast<double>(ledger.get("rng.next").total_ns),
                           static_cast<double>(kRngDraws)));
  m.set("core.useful_contact_frac", ratio(static_cast<double>(trace.probe.useful()),
                                        static_cast<double>(trace.probe.contacts)));

  Json ledger_json = Json::object();
  std::uint64_t covered_ns = 0;
  Json layers = Json::object();
  for (const auto& [layer, ns] : ledger.layer_self_ns()) {
    layers.set(layer, static_cast<double>(ns) / 1e9);
    covered_ns += ns;
  }
  const double residual =
      static_cast<double>(wall_ns > covered_ns ? wall_ns - covered_ns : covered_ns - wall_ns) /
      static_cast<double>(wall_ns);
  ledger_json.set("replay_s", static_cast<double>(wall_ns) / 1e9);
  ledger_json.set("covered_s", static_cast<double>(covered_ns) / 1e9);
  ledger_json.set("residual_frac", residual);
  ledger_json.set("residual_bound", kLedgerResidual);
  ledger_json.set("layers", std::move(layers));
  Json spans = Json::object();
  for (const auto& [name, e] : ledger.entries()) {
    Json s = Json::object();
    s.set("total_s", static_cast<double>(e.total_ns) / 1e9);
    s.set("self_s", static_cast<double>(e.self_ns) / 1e9);
    s.set("count", e.count);
    spans.set(name, std::move(s));
  }
  ledger_json.set("spans", std::move(spans));

  Json out = check;
  out.set("metrics", std::move(m));
  out.set("ledger", std::move(ledger_json));
  out.set("resumable_report_equal", resumable_equal ? Json(*resumable_equal) : Json());
  std::cout << out.dump(2) << "\n";
  if (residual > kLedgerResidual) {
    std::cerr << "perf_replay: layer ledger does not add up: self times cover "
              << static_cast<double>(covered_ns) / 1e9 << " s of a "
              << static_cast<double>(wall_ns) / 1e9 << " s replay (residual " << residual
              << " > bound " << kLedgerResidual << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return usage();
  try {
    if (args->mode == "count") return run_count(*args);
    if (args->mode == "setup") return run_setup(*args);
    if (args->mode == "check") return run_check(*args);
    return run_trace(*args);
  } catch (const std::exception& e) {
    std::cerr << "perf_replay: " << e.what() << "\n";
    return 1;
  }
}
