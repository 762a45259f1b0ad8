// Tests for the packed, memory-mapped graph store (graph/graph_store.hpp)
// and the edge-list reader's edge paths (graph/io.hpp): pack -> map ->
// adjacency equality across every generator family, graphs (built or
// mapped) whose copies outlive their source, checksum stability, error
// messages that name the offending path and byte/line, compact-id
// relabelling, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "dynamics/churn.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_store.hpp"
#include "graph/io.hpp"
#include "obs/build_info.hpp"
#include "rng/rng.hpp"
#include "support/graph_oracles.hpp"

namespace graph = rumor::graph;
namespace core = rumor::core;
namespace dynamics = rumor::dynamics;
namespace rng = rumor::rng;
using graph::Graph;
using graph::NodeId;

namespace {

/// A unique temp path for one test; removed by the fixture-less helper's
/// destructor so failures don't litter.
struct TempStore {
  std::string path;
  explicit TempStore(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("rumor_test_store_" + tag + ".rgs"))
                 .string()) {
    std::remove(path.c_str());
  }
  ~TempStore() { std::remove(path.c_str()); }
};

void expect_graphs_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.name(), b.name());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree mismatch at " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbor mismatch at " << v;
  }
}

std::vector<Graph> generator_zoo() {
  rng::Engine eng = rng::derive_stream(901, 0);
  std::vector<Graph> zoo;
  zoo.push_back(graph::complete(16));
  zoo.push_back(graph::star(33));
  zoo.push_back(graph::double_star(20));
  zoo.push_back(graph::path(25));
  zoo.push_back(graph::cycle(24));
  zoo.push_back(graph::wheel(17));
  zoo.push_back(graph::complete_binary_tree(31));
  zoo.push_back(graph::complete_bipartite(7, 9));
  zoo.push_back(graph::torus(6));
  zoo.push_back(graph::torus3d(3));
  zoo.push_back(graph::hypercube(6));
  zoo.push_back(graph::random_regular(60, 4, eng));
  zoo.push_back(graph::largest_component(graph::erdos_renyi(80, 0.1, eng)));
  zoo.push_back(graph::largest_component(graph::chung_lu(100, {}, eng)));
  zoo.push_back(graph::preferential_attachment(70, 3, eng));
  zoo.push_back(graph::largest_component(graph::watts_strogatz(64, 4, 0.1, eng)));
  return zoo;
}

// --- Store round-trip --------------------------------------------------------

TEST(GraphStore, PackOpenAdjacencyEqualAcrossFamilies) {
  const std::vector<Graph> zoo = generator_zoo();
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const Graph& g = zoo[i];
    TempStore store("zoo" + std::to_string(i));
    graph::write_graph_store(g, store.path);
    const Graph mapped = graph::open_graph_store(store.path);
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_FALSE(g.is_mapped());
    expect_graphs_identical(g, mapped);
  }
}

TEST(GraphStore, MappedGraphSamplesIdenticalNeighbors) {
  // random_neighbor consumes the engine identically on both backends —
  // the root of the file-vs-RAM bit-determinism contract.
  const Graph g = graph::hypercube(8);
  TempStore store("sample");
  graph::write_graph_store(g, store.path);
  const Graph mapped = graph::open_graph_store(store.path);
  rng::Engine ea = rng::derive_stream(7, 0);
  rng::Engine eb = rng::derive_stream(7, 0);
  for (int i = 0; i < 2000; ++i) {
    const NodeId v = static_cast<NodeId>(i) % g.num_nodes();
    EXPECT_EQ(g.random_neighbor(v, ea), mapped.random_neighbor(v, eb));
  }
}

TEST(GraphStore, MappedGraphRunsEnginesBitIdentically) {
  rng::Engine gen = rng::derive_stream(31, 0);
  const Graph g = graph::random_regular(128, 6, gen);
  TempStore store("engines");
  graph::write_graph_store(g, store.path);
  const Graph mapped = graph::open_graph_store(store.path);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    rng::Engine ea = rng::derive_stream(99, trial);
    rng::Engine eb = rng::derive_stream(99, trial);
    const auto ra = core::run_sync(g, 0, ea);
    const auto rb = core::run_sync(mapped, 0, eb);
    EXPECT_EQ(ra.rounds, rb.rounds);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.informed_round, rb.informed_round);
  }
}

TEST(GraphStore, DynamicsOverlayAgreesOnMappedGraphs) {
  // Churn overlays consume the graph through the same public adjacency
  // interface; their evolved edge sets must match across backends.
  rng::Engine gen = rng::derive_stream(77, 0);
  const Graph g = graph::largest_component(graph::erdos_renyi(60, 0.15, gen));
  TempStore store("dyn");
  graph::write_graph_store(g, store.path);
  const Graph mapped = graph::open_graph_store(store.path);

  dynamics::DynamicsSpec spec;
  spec.churn.model = dynamics::ChurnModel::kMarkov;
  spec.churn.birth = 0.1;
  spec.churn.death = 0.1;
  spec.seed = 5;
  const auto edges_a = dynamics::base_edge_list(g);
  const auto edges_b = dynamics::base_edge_list(mapped);
  dynamics::DynamicGraphView va(g, spec, nullptr, /*stream_seed=*/5, /*trial=*/3, &edges_a);
  dynamics::DynamicGraphView vb(mapped, spec, nullptr, /*stream_seed=*/5, /*trial=*/3, &edges_b);
  for (std::uint64_t round = 1; round <= 8; ++round) {
    va.begin_round(round);
    vb.begin_round(round);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(va.degree(v), vb.degree(v)) << "round " << round << " node " << v;
    }
  }
}

// --- Header / checksum -------------------------------------------------------

TEST(GraphStore, HeaderInfoMatchesPackedGraph) {
  const Graph g = graph::torus(7);
  TempStore store("hdr");
  graph::write_graph_store(g, store.path, "unit-test");
  const graph::GraphStoreInfo info = graph::read_graph_store_info(store.path);
  EXPECT_EQ(info.version, graph::kGraphStoreVersion);
  EXPECT_EQ(info.n, g.num_nodes());
  EXPECT_EQ(info.arcs, 2 * g.num_edges());
  EXPECT_EQ(info.num_edges(), g.num_edges());
  EXPECT_EQ(info.name, g.name());
  EXPECT_NE(info.checksum, 0u);
  EXPECT_NE(info.provenance.find("\"source\":\"unit-test\""), std::string::npos);
  // Exact layout: header + (n+1) compact offsets + arcs neighbors + strings.
  const std::uint64_t expect_size = graph::kGraphStoreHeaderBytes + (info.n + 1) * 4 +
                                    info.arcs * 4 + info.name.size() + info.provenance.size();
  EXPECT_EQ(info.file_size, expect_size);
  // The dump names every headline field.
  const std::string dump = graph::graph_store_info_dump(info, store.path);
  EXPECT_NE(dump.find("RUMORCSR v1"), std::string::npos);
  EXPECT_NE(dump.find(g.name()), std::string::npos);
  EXPECT_NE(dump.find("32-bit"), std::string::npos);
}

TEST(GraphStore, ProvenanceBytesArePinned) {
  // The provenance string as the packer has always written it: compact
  // JSON, the writer, build_info's fields but its flags, then the note,
  // escaped.
  const rumor::obs::BuildInfo& bi = rumor::obs::build_info();
  for (const char* field : {bi.git_sha, bi.compiler, bi.compiler_version, bi.build_type}) {
    ASSERT_TRUE(std::all_of(field, field + std::char_traits<char>::length(field),
                            [](char c) { return c >= 0x20 && c != '"' && c != '\\'; }))
        << "the expected text below splices " << field << " verbatim";
  }
  const std::string head = std::string("{\"writer\":\"rumor graph_store v1\",\"git_sha\":\"") +
                           bi.git_sha + "\",\"compiler\":\"" + bi.compiler +
                           "\",\"compiler_version\":\"" + bi.compiler_version +
                           "\",\"build_type\":\"" + bi.build_type + "\"";
  const std::pair<std::string, std::string> cases[] = {
      {"", head + "}"},
      {"edges/web.txt", head + ",\"source\":\"edges/web.txt\"}"},
      {"say \"hi\" \\ \n\t\r\x01\x1f\x7f\xc3\xa9",
       head + ",\"source\":\"say \\\"hi\\\" \\\\ \\n\\t\\r\\u0001\\u001f\x7f\xc3\xa9\"}"},
  };
  const Graph g = graph::cycle(5);
  for (const auto& [note, want] : cases) {
    TempStore store("provenance");
    graph::write_graph_store(g, store.path, note);
    EXPECT_EQ(graph::read_graph_store_info(store.path).provenance, want) << note;
  }
}

TEST(GraphStore, ChecksumStableAcrossRepacksAndDistinctAcrossGraphs) {
  const Graph g = graph::hypercube(5);
  TempStore a("cka");
  TempStore b("ckb");
  graph::write_graph_store(g, a.path, "first pack");
  graph::write_graph_store(g, b.path, "second pack, different provenance");
  const auto ia = graph::verify_graph_store(a.path);
  const auto ib = graph::verify_graph_store(b.path);
  // Provenance is excluded from the checksum: same graph => same checksum,
  // which is what lets campaign spec hashes survive repacking.
  EXPECT_EQ(ia.checksum, ib.checksum);

  TempStore c("ckc");
  graph::write_graph_store(graph::hypercube(6), c.path);
  EXPECT_NE(graph::read_graph_store_info(c.path).checksum, ia.checksum);
}

TEST(Graph, CopiesAndMovesOutliveTheirSource) {
  // Copies share the immutable CSR storage, so every copy and every moved-to
  // graph stays readable after the graph it came from is destroyed — for a
  // built graph and for a mapped one.
  const Graph reference = graph::hypercube(5);
  std::vector<std::vector<NodeId>> rows;
  for (NodeId v = 0; v < reference.num_nodes(); ++v) {
    rows.emplace_back(reference.neighbors(v).begin(), reference.neighbors(v).end());
  }
  TempStore store("lifetime");
  graph::write_graph_store(reference, store.path);
  for (const bool mapped : {false, true}) {
    auto source = std::make_unique<Graph>(mapped ? graph::open_graph_store(store.path)
                                                 : graph::hypercube(5));
    Graph copied = *source;
    Graph copy_assigned = graph::cycle(3);
    copy_assigned = *source;
    Graph moved = std::move(*source);
    Graph move_assigned = graph::cycle(3);
    move_assigned = std::move(moved);
    source.reset();
    for (const Graph* g : {&copied, &copy_assigned, &move_assigned}) {
      EXPECT_EQ(g->is_mapped(), mapped);
      EXPECT_EQ(g->name(), reference.name());
      ASSERT_EQ(g->num_nodes(), rows.size());
      ASSERT_EQ(g->num_edges(), reference.num_edges());
      for (NodeId v = 0; v < g->num_nodes(); ++v) {
        const auto row = g->neighbors(v);
        ASSERT_TRUE(std::equal(row.begin(), row.end(), rows[v].begin(), rows[v].end()))
            << (mapped ? "mapped" : "built") << " row " << v;
      }
    }
  }
}

TEST(GraphStore, FlagBitsRejectedNamingPathAndByte12) {
  // Offsets are always 32-bit: bit 0 (once the 64-bit offsets flag) is
  // refused like every other flag bit, by each reader.
  for (const std::uint32_t flags : {1u, 0x80000000u}) {
    TempStore store("flags");
    graph::write_graph_store(graph::cycle(8), store.path);
    {
      std::fstream f(store.path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(12);  // flags field
      f.write(reinterpret_cast<const char*>(&flags), sizeof flags);
    }
    for (auto open : {+[](const std::string& p) { (void)graph::open_graph_store(p); },
                      +[](const std::string& p) { (void)graph::read_graph_store_info(p); },
                      +[](const std::string& p) { (void)graph::verify_graph_store(p); }}) {
      try {
        open(store.path);
        FAIL() << "expected throw for flags " << flags;
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
        EXPECT_NE(msg.find("flag bits at byte 12"), std::string::npos) << msg;
      }
    }
  }
}

// --- Error paths: every message names the path and a byte offset -------------

TEST(GraphStore, MissingFileErrorNamesPath) {
  const std::string path = "/nonexistent/no_such_store.rgs";
  try {
    (void)graph::open_graph_store(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(GraphStore, TruncatedHeaderErrorNamesPathAndOffset) {
  TempStore store("trunc");
  std::ofstream(store.path, std::ios::binary) << "RUMO";
  for (auto open : {+[](const std::string& p) { (void)graph::open_graph_store(p); },
                    +[](const std::string& p) { (void)graph::read_graph_store_info(p); }}) {
    try {
      open(store.path);
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
      EXPECT_NE(msg.find("truncated header"), std::string::npos) << msg;
      EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
    }
  }
}

TEST(GraphStore, BadMagicErrorNamesByteZero) {
  TempStore store("magic");
  std::ofstream(store.path, std::ios::binary) << std::string(128, 'x');
  try {
    (void)graph::open_graph_store(store.path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad magic at byte 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
  }
}

TEST(GraphStore, UnsupportedVersionRejected) {
  TempStore store("ver");
  graph::write_graph_store(graph::cycle(8), store.path);
  {
    std::fstream f(store.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);  // version field
    const std::uint32_t bogus = 99;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  }
  try {
    (void)graph::open_graph_store(store.path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unsupported format version 99 at byte 8"), std::string::npos) << msg;
  }
}

TEST(GraphStore, SizeMismatchRejected) {
  TempStore store("size");
  graph::write_graph_store(graph::cycle(12), store.path);
  const auto full = std::filesystem::file_size(store.path);
  std::filesystem::resize_file(store.path, full - 5);
  try {
    (void)graph::open_graph_store(store.path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("declares a layout of"), std::string::npos) << msg;
    EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
  }
}

TEST(GraphStore, VerifyDetectsPayloadCorruption) {
  TempStore store("corrupt");
  graph::write_graph_store(graph::hypercube(4), store.path);
  ASSERT_NO_THROW((void)graph::verify_graph_store(store.path));
  {
    // Flip the low bit of one neighbor id (payload byte 88 is the low byte
    // of the sixth id, after the 17 offsets): the id stays below n = 16.
    std::fstream f(store.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(graph::kGraphStoreHeaderBytes + 88);
    char b = 0;
    f.read(&b, 1);
    f.seekp(graph::kGraphStoreHeaderBytes + 88);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  // Opening still succeeds (open checks that rows stay in range, and they
  // do)...
  EXPECT_NO_THROW((void)graph::open_graph_store(store.path));
  // ...but verification catches it, naming the path.
  try {
    (void)graph::verify_graph_store(store.path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
  }
}

// cycle(8) packed: n = 8, 16 arcs, offsets[v] = 2v from byte 64, neighbors
// from byte 64 + 9 * 4 = 100. Each corruption below would let a row read
// run off the mapping; open refuses it naming the byte and the bound, while
// the O(header) info read does not look.
void expect_open_refuses(std::size_t byte, std::uint32_t value, const std::string& message) {
  TempStore store("payload" + std::to_string(byte));  // ctest runs tests in parallel
  graph::write_graph_store(graph::cycle(8), store.path);
  {
    std::fstream f(store.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(byte));
    f.write(reinterpret_cast<const char*>(&value), sizeof value);
  }
  EXPECT_NO_THROW((void)graph::read_graph_store_info(store.path)) << message;
  try {
    (void)graph::open_graph_store(store.path);
    FAIL() << "expected throw: " << message;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(store.path), std::string::npos) << msg;
    EXPECT_NE(msg.find(message), std::string::npos) << msg;
  }
}

TEST(GraphStore, OpenRefusesNonzeroFirstOffset) {
  expect_open_refuses(64, 1, "offsets[0] at byte 64 is 1, expected 0");
}

TEST(GraphStore, OpenRefusesOffsetsThatDecreaseOrPassTheArcCount) {
  expect_open_refuses(72, 1, "offsets[2] at byte 72 is 1, outside [offsets[1] = 2, arc count 16]");
  expect_open_refuses(68, 0x7ffffff0u,
                      "offsets[1] at byte 68 is 2147483632, outside [offsets[0] = 0, arc count 16]");
}

TEST(GraphStore, OpenRefusesLastOffsetOtherThanTheArcCount) {
  expect_open_refuses(96, 15, "offsets[8] at byte 96 is 15, expected the arc count 16");
}

TEST(GraphStore, OpenRefusesNeighborIdsNotBelowN) {
  expect_open_refuses(112, 8, "neighbor id 8 at byte 112 is not below the node count 8");
}

// --- Edge-list reader edge paths ---------------------------------------------

TEST(EdgeListIo, CompactIdsRelabelInFirstAppearanceOrder) {
  // Sparse SNAP-style ids, including one far above 2^32.
  std::istringstream in(
      "999999999999 17\n"
      "17 4000000000\n"
      "4000000000 999999999999\n");
  const Graph g = graph::read_edge_list(in, "snap", /*compact_ids=*/true);
  ASSERT_EQ(g.num_nodes(), 3u);  // 999999999999 -> 0, 17 -> 1, 4000000000 -> 2
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(EdgeListIo, InlineCommentsBlankLinesAndExtraColumns) {
  std::istringstream in(
      "# full-line comment\n"
      "0 1 # inline comment\n"
      "\n"
      "   \t  \n"
      "1 2 0.75 extra-weight-column\n");
  const Graph g = graph::read_edge_list(in, "mixed");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListIo, MalformedLinesThrowNamingInputAndLine) {
  const struct {
    const char* text;
    const char* expect;
  } cases[] = {
      {"0 1\nfoo bar\n", "malformed node id 'foo'"},
      {"0 1\n2 x9\n", "malformed node id 'x9'"},
      {"0 1\n2 -3\n", "malformed node id '-3'"},
      {"0 1\n7\n", "expected two node ids"},
      {"0 1\n2 99999999999999999999\n", "out of 64-bit range"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      (void)graph::read_edge_list(in, "edges.txt");
      FAIL() << "expected throw for: " << c.text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("edges.txt"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.expect), std::string::npos) << msg;
    }
  }
}

TEST(EdgeListIo, OversizedIdsRejectedWithoutCompaction) {
  // 2^32 - 1 itself is rejected: n = max id + 1 must fit a 32-bit NodeId.
  std::istringstream big(std::string("0 4294967295\n"));
  try {
    (void)graph::read_edge_list(big, "big.txt");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("big.txt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("compact_ids"), std::string::npos) << msg;
  }
  // The same line is fine with compaction.
  std::istringstream ok(std::string("0 4294967295\n"));
  const Graph g = graph::read_edge_list(ok, "big.txt", /*compact_ids=*/true);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListIo, FileErrorsNamePath) {
  try {
    (void)graph::read_edge_list_file("/nonexistent/edges.txt");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/edges.txt"), std::string::npos);
  }
  // Errors inside a real file carry the path too (via the reader's name).
  TempStore bad("badlist");
  std::ofstream(bad.path) << "0 1\nnope\n";
  try {
    (void)graph::read_edge_list_file(bad.path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(bad.path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
}

TEST(EdgeListIo, WriteReadRoundTripThroughStore) {
  // Full pipeline: generator -> edge list -> read back -> pack -> map.
  rng::Engine eng = rng::derive_stream(5, 0);
  const Graph g = graph::random_regular(40, 4, eng);
  TempStore listing("roundtrip_list");
  graph::write_edge_list_file(g, listing.path);
  const Graph re = graph::read_edge_list_file(listing.path);
  ASSERT_EQ(re.num_nodes(), g.num_nodes());
  ASSERT_EQ(re.num_edges(), g.num_edges());
  TempStore store("roundtrip_store");
  graph::write_graph_store(re, store.path);
  const Graph mapped = graph::open_graph_store(store.path);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto na = g.neighbors(v);
    const auto nb = mapped.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

}  // namespace
