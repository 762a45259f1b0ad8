// tools/graph_pack: packs graphs into the memory-mapped store format
// (docs/GRAPH_FORMAT.md) that campaign cells open with
// graph: {kind: "file", path: ...}.
//
//   graph_pack --edges FILE [--compact-ids] [--name NAME] --out STORE
//       Pack a SNAP-style edge list ('u v' per line, '#' comments).
//       --compact-ids relabels sparse ids to [0, n) in first-appearance
//       order (required for dumps with arbitrary 64-bit ids).
//
//   graph_pack --family FAM --n N [--degree D] [--p P] [--beta B]
//              [--average-degree A] [--graph-seed S] --out STORE
//       Pack a generated family through the exact spec resolution campaign
//       cells use (sim::build_graph), so the packed graph is bit-identical
//       to the in-memory graph a campaign cell with the same spec builds.
//       Without --graph-seed, random families use seed 1 (a campaign
//       cell's default seed). Numbers are read whole (no sign on the
//       integers, no trailing bytes) and within a campaign spec's ranges.
//
//   graph_pack --info STORE [--verify]
//       Dump the store header; --verify additionally recomputes the
//       payload checksum.
//
// Exit codes: 0 success, 1 runtime failure (I/O, corrupt store), 2 usage.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "graph/graph_store.hpp"
#include "graph/io.hpp"
#include "json/json.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace {

int usage(std::ostream& err) {
  err << "usage: graph_pack --edges FILE [--compact-ids] [--name NAME] --out STORE\n"
         "       graph_pack --family FAM --n N [--degree D] [--p P] [--beta B]\n"
         "                  [--average-degree A] [--graph-seed S] --out STORE\n"
         "       graph_pack --info STORE [--verify]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string edges;
  std::string out;
  std::string info;
  std::string name;
  bool compact_ids = false;
  bool verify = false;
  // The generator parameters live in a campaign config so check_config
  // holds them to the ranges a campaign spec gets.
  rumor::sim::CampaignConfig cfg;
  rumor::sim::GraphSpec& spec = cfg.graph;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "graph_pack: missing value after " << argv[i] << "\n";
      std::exit(usage(std::cerr));
    }
    return argv[i + 1];
  };

  // Reads the value after the numeric flag argv[i] into `field` with
  // rumor_bench's readers; integers stop at the field's width and at 2^53,
  // as in a spec. Each value is range-checked as it lands (the earlier
  // ones already passed), so a refusal names its own flag.
  auto read_number = [&](int& i, auto& field) -> bool {
    using T = std::remove_reference_t<decltype(field)>;
    const char* flag = argv[i];
    const char* text = need_value(i++);
    std::optional<T> v;
    std::string why;
    if constexpr (std::is_floating_point_v<T>) {
      v = rumor::sim::parse_double_arg(text);
      why = "expected a finite number";
    } else {
      const std::uint64_t max =
          std::min<std::uint64_t>(std::numeric_limits<T>::max(), rumor::json::kMaxExactInteger);
      if (const auto u = rumor::sim::parse_unsigned_arg(text, max)) v = static_cast<T>(*u);
      why = "expected an integer in 0.." + std::to_string(max);
    }
    if (v) {
      field = *v;
      why = rumor::sim::check_config(cfg);
    }
    if (why.empty()) return true;
    std::cerr << "graph_pack: bad value for " << flag << ": " << text << " (" << why << ")\n";
    usage(std::cerr);
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--edges") edges = need_value(i++);
    else if (arg == "--out") out = need_value(i++);
    else if (arg == "--info") info = need_value(i++);
    else if (arg == "--name") name = need_value(i++);
    else if (arg == "--compact-ids") compact_ids = true;
    else if (arg == "--verify") verify = true;
    else if (arg == "--family") spec.family = need_value(i++);
    else if (arg == "--n") {
      if (!read_number(i, spec.n)) return 2;
    } else if (arg == "--degree") {
      if (!read_number(i, spec.degree)) return 2;
    } else if (arg == "--p") {
      if (!read_number(i, spec.p)) return 2;
    } else if (arg == "--beta") {
      if (!read_number(i, spec.beta)) return 2;
    } else if (arg == "--average-degree") {
      if (!read_number(i, spec.average_degree)) return 2;
    } else if (arg == "--graph-seed") {
      if (!read_number(i, spec.graph_seed)) return 2;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "graph_pack: unknown argument '" << arg << "'\n";
      return usage(std::cerr);
    }
  }

  try {
    if (!info.empty()) {
      if (!edges.empty() || !spec.family.empty() || !out.empty()) return usage(std::cerr);
      const rumor::graph::GraphStoreInfo store_info =
          verify ? rumor::graph::verify_graph_store(info)
                 : rumor::graph::read_graph_store_info(info);
      std::cout << rumor::graph::graph_store_info_dump(store_info, info, verify);
      return 0;
    }

    if (out.empty() || edges.empty() == spec.family.empty()) {
      // Exactly one input mode (--edges xor --family), and --out required.
      return usage(std::cerr);
    }

    rumor::graph::Graph g = [&] {
      if (!edges.empty()) return rumor::graph::read_edge_list_file(edges, compact_ids);
      return rumor::sim::build_graph(spec, /*fallback_seed=*/1);
    }();
    if (!name.empty()) {
      // Re-tag through the edge-list reader's naming hook: rebuilds are
      // avoidable, but names only matter for small curated stores.
      rumor::graph::GraphBuilder builder(g.num_nodes());
      for (rumor::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        for (const rumor::graph::NodeId w : g.neighbors(v)) {
          if (v < w) builder.add_edge(v, w);
        }
      }
      g = std::move(builder).build(name);
    }
    const std::string source = !edges.empty()
                                   ? "edge_list:" + edges + (compact_ids ? " (compact_ids)" : "")
                                   : "family:" + spec.family + " n=" + std::to_string(spec.n) +
                                         " graph_seed=" + std::to_string(spec.graph_seed);
    rumor::graph::write_graph_store(g, out, source);
    const rumor::graph::GraphStoreInfo written = rumor::graph::read_graph_store_info(out);
    std::cout << "packed " << written.name << ": " << written.n << " nodes, "
              << written.num_edges() << " edges, " << written.file_size
              << " bytes (32-bit offsets) -> " << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "graph_pack: " << e.what() << "\n";
    return 1;
  }
}
