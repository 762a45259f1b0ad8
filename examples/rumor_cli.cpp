// rumor_cli: command-line driver for one-off spreading measurements.
//
//   rumor_cli --graph hypercube --n 1024 --model async --mode pushpull
//             --trials 500 --seed 7 [--source 0] [--loss 0.1] [--csv out.csv]
//   rumor_cli --edge-list my_network.edges --model both
//
// Families: complete star double_star path cycle torus torus3d hypercube
//           tree wheel lollipop barbell chain_of_stars bundle_chain
//           erdos_renyi random_regular chung_lu pref_attachment
//           watts_strogatz
// Models:   sync | async | both      Modes: push | pull | pushpull
//
// Prints mean / median / p99 / hp spreading time with a bootstrap CI on the
// mean, and optionally appends a CSV row for scripting.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/rumor.hpp"
#include "sim/harness.hpp"
#include "sim/table.hpp"

using namespace rumor;

namespace {

struct Args {
  std::string graph = "hypercube";
  std::string edge_list;
  graph::NodeId n = 1024;
  std::string model = "both";
  std::string mode = "pushpull";
  std::uint64_t trials = 300;
  std::uint64_t seed = 1;
  graph::NodeId source = 0;
  double loss = 0.0;
  std::string csv;
  // family-specific knobs
  double p = 0.0;          // ER edge probability (0: 3 ln n / n)
  std::uint32_t degree = 6;  // random_regular / watts_strogatz / PA
  double rewire = 0.1;     // watts_strogatz
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph FAMILY | --edge-list FILE] [--n N] [--model sync|async|both]\n"
               "          [--mode push|pull|pushpull] [--trials T] [--seed S] [--source V]\n"
               "          [--loss P] [--degree D] [--p P] [--rewire P] [--csv FILE]\n",
               argv0);
  std::exit(2);
}

std::optional<core::Mode> parse_mode(const std::string& mode) {
  if (mode == "push") return core::Mode::kPush;
  if (mode == "pull") return core::Mode::kPull;
  if (mode == "pushpull") return core::Mode::kPushPull;
  return std::nullopt;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage_and_exit(argv[0]);
      }
      return argv[++i];
    };
    const char* a = argv[i];
    if (std::strcmp(a, "--graph") == 0) {
      args.graph = need_value(a);
    } else if (std::strcmp(a, "--edge-list") == 0) {
      args.edge_list = need_value(a);
    } else if (std::strcmp(a, "--n") == 0) {
      args.n = static_cast<graph::NodeId>(std::strtoul(need_value(a), nullptr, 10));
    } else if (std::strcmp(a, "--model") == 0) {
      args.model = need_value(a);
    } else if (std::strcmp(a, "--mode") == 0) {
      args.mode = need_value(a);
    } else if (std::strcmp(a, "--trials") == 0) {
      args.trials = std::strtoull(need_value(a), nullptr, 10);
    } else if (std::strcmp(a, "--seed") == 0) {
      args.seed = std::strtoull(need_value(a), nullptr, 10);
    } else if (std::strcmp(a, "--source") == 0) {
      args.source = static_cast<graph::NodeId>(std::strtoul(need_value(a), nullptr, 10));
    } else if (std::strcmp(a, "--loss") == 0) {
      args.loss = std::strtod(need_value(a), nullptr);
    } else if (std::strcmp(a, "--degree") == 0) {
      args.degree = static_cast<std::uint32_t>(std::strtoul(need_value(a), nullptr, 10));
    } else if (std::strcmp(a, "--p") == 0) {
      args.p = std::strtod(need_value(a), nullptr);
    } else if (std::strcmp(a, "--rewire") == 0) {
      args.rewire = std::strtod(need_value(a), nullptr);
    } else if (std::strcmp(a, "--csv") == 0) {
      args.csv = need_value(a);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      usage_and_exit(argv[0]);
    }
  }
  if (args.trials == 0) {
    std::fprintf(stderr, "--trials must be a positive integer\n");
    usage_and_exit(argv[0]);
  }
  if (!parse_mode(args.mode)) {
    std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
    usage_and_exit(argv[0]);
  }
  return args;
}

std::optional<graph::Graph> build_graph(const Args& args) {
  if (!args.edge_list.empty()) {
    return graph::read_edge_list_file(args.edge_list, /*compact_ids=*/true);
  }
  rng::Engine eng = rng::derive_stream(args.seed, 0xf00dULL);
  const graph::NodeId n = args.n;
  const std::string& f = args.graph;
  if (f == "complete") return graph::complete(n);
  if (f == "star") return graph::star(n);
  if (f == "double_star") return graph::double_star(n);
  if (f == "path") return graph::path(n);
  if (f == "cycle") return graph::cycle(n);
  if (f == "torus") {
    return graph::torus(static_cast<graph::NodeId>(std::lround(std::sqrt(n))));
  }
  if (f == "torus3d") {
    return graph::torus3d(static_cast<graph::NodeId>(std::lround(std::cbrt(n))));
  }
  if (f == "hypercube") {
    return graph::hypercube(static_cast<std::uint32_t>(std::lround(std::log2(n))));
  }
  if (f == "tree") return graph::complete_binary_tree(n);
  if (f == "wheel") return graph::wheel(n);
  if (f == "lollipop") return graph::lollipop(n / 2, n - n / 2);
  if (f == "barbell") return graph::barbell(n / 3, n - 2 * (n / 3));
  if (f == "chain_of_stars") {
    const auto k = static_cast<graph::NodeId>(std::lround(std::sqrt(n)));
    return graph::chain_of_stars(k, k);
  }
  if (f == "bundle_chain") {
    const auto len = static_cast<graph::NodeId>(std::lround(std::cbrt(4.0 * n)));
    return graph::bundle_chain(len, len * len / 4);
  }
  if (f == "erdos_renyi") {
    const double p = args.p > 0.0 ? args.p : 3.0 * std::log(n) / n;
    return graph::largest_component(graph::erdos_renyi(n, p, eng));
  }
  if (f == "random_regular") return graph::random_regular(n, args.degree, eng);
  if (f == "chung_lu") {
    return graph::largest_component(
        graph::chung_lu(n, {.beta = 2.5, .average_degree = 8.0}, eng));
  }
  if (f == "pref_attachment") return graph::preferential_attachment(n, args.degree / 2 + 1, eng);
  if (f == "watts_strogatz") {
    return graph::largest_component(graph::watts_strogatz(n, args.degree, args.rewire, eng));
  }
  return std::nullopt;
}

void report(const char* model, const graph::Graph& g, const Args& args,
            const sim::SpreadingTimeSample& sample, sim::Table& table) {
  const auto ci = sample.mean_ci();
  const double hp = sample.quantile(1.0 - 1.0 / static_cast<double>(args.trials));
  table.add_row({model, sim::fmt_cell("%.3f", sample.mean()),
                 sim::fmt_cell("[%.3f, %.3f]", ci.lower, ci.upper),
                 sim::fmt_cell("%.3f", sample.median()), sim::fmt_cell("%.3f", sample.quantile(0.99)),
                 sim::fmt_cell("%.3f", hp)});
  if (!args.csv.empty()) {
    std::FILE* f = std::fopen(args.csv.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "%s,%u,%s,%s,%llu,%llu,%.3f,%.6f,%.6f,%.6f,%.6f\n", g.name().c_str(),
                   g.num_nodes(), model, args.mode.c_str(),
                   static_cast<unsigned long long>(args.trials),
                   static_cast<unsigned long long>(args.seed), args.loss, sample.mean(),
                   sample.median(), sample.quantile(0.99), hp);
      std::fclose(f);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto maybe_graph = build_graph(args);
  if (!maybe_graph) {
    std::fprintf(stderr, "unknown graph family: %s\n", args.graph.c_str());
    usage_and_exit(argv[0]);
  }
  const graph::Graph& g = *maybe_graph;
  if (args.source >= g.num_nodes()) {
    std::fprintf(stderr, "source %u out of range (n = %u)\n", args.source, g.num_nodes());
    return 2;
  }
  if (!graph::is_connected(g)) {
    std::fprintf(stderr, "warning: graph is disconnected; runs will not complete\n");
  }

  std::printf("graph: %s  (n=%u, m=%zu)\n", g.name().c_str(), g.num_nodes(), g.num_edges());
  std::printf("mode: %s  source: %u  trials: %llu  seed: %llu  loss: %.2f\n\n",
              args.mode.c_str(), args.source, static_cast<unsigned long long>(args.trials),
              static_cast<unsigned long long>(args.seed), args.loss);

  const core::Mode mode = *parse_mode(args.mode);
  sim::TrialConfig config;
  config.trials = args.trials;
  config.seed = args.seed;

  sim::Table table({"model", "mean", "mean 95% CI", "p50", "p99", "hp"});
  if (args.model == "sync" || args.model == "both") {
    auto samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
      core::SyncOptions opts;
      opts.mode = mode;
      opts.message_loss = args.loss;
      return static_cast<double>(core::run_sync(g, args.source, eng, opts).rounds);
    });
    report("sync", g, args, sim::SpreadingTimeSample(std::move(samples)), table);
  }
  if (args.model == "async" || args.model == "both") {
    auto samples = sim::run_trials(config, [&](std::uint64_t, rng::Engine& eng) {
      core::AsyncOptions opts;
      opts.mode = mode;
      opts.message_loss = args.loss;
      return core::run_async(g, args.source, eng, opts).time;
    });
    report("async", g, args, sim::SpreadingTimeSample(std::move(samples)), table);
  }
  table.print();
  std::printf("\n(sync in rounds, async in time units; hp = empirical (1 - 1/trials)-quantile)\n");
  return 0;
}
