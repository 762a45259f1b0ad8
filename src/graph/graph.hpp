// rumor/graph: immutable compressed-sparse-row graphs.
//
// Every protocol engine's inner loop is "pick a uniformly random neighbor of
// v", so the adjacency representation is a frozen CSR: one offsets array and
// one flat neighbor array. Uniform neighbor selection is a single bounded
// uniform plus one indexed load.
//
// Every Graph has one layout: 32-bit offsets (so at most 2^32 - 1 arcs) and
// 32-bit neighbor ids, read through raw pointers into immutable storage that
// a shared handle keeps alive. The storage is either
//
//   * built — GraphBuilder::build() freezes edges into two vectors (every
//     generator and the edge-list reader produce these);
//   * mapped — graph_store.hpp's open_graph_store mmaps a packed on-disk CSR
//     and the pointers aim straight into the mapping.
//
// Copies share the storage, so copying a Graph is O(1) and copy/move are the
// compiler's; a moved-from Graph may only be assigned to or destroyed.
// Engines, couplings, and dynamics overlays never see the difference: a
// mapped graph is bit-for-bit interchangeable with the built graph it was
// packed from (tests/test_graph_store.cpp).
//
// Graphs in this library are simple (no self-loops, no parallel edges),
// undirected, and — for rumor-spreading purposes — expected to be connected;
// `is_connected()` in properties.hpp lets callers enforce that.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rng/rng.hpp"

namespace rumor::graph {

/// Node identifier; dense in [0, n).
using NodeId = std::uint32_t;

/// An undirected edge as an (unordered) pair of endpoints.
struct Edge {
  NodeId a = 0;
  NodeId b = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph;

/// Opens a packed graph store (graph_store.hpp); declared here because it is
/// the mapped layout's constructor.
[[nodiscard]] Graph open_graph_store(const std::string& path);

/// Mutable edge-list accumulator; `build()` freezes it into a CSR Graph.
///
/// The builder deduplicates and rejects self-loops at build time so that all
/// generators can add edges without tracking duplicates themselves.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges_added() const noexcept { return edges_.size(); }

  /// Records an undirected edge {a, b}. Self-loops are ignored (they are
  /// meaningless for rumor spreading); duplicates are removed at build().
  /// Precondition: a < num_nodes() && b < num_nodes().
  void add_edge(NodeId a, NodeId b) {
    assert(a < num_nodes_ && b < num_nodes_);
    if (a == b) return;  // self-loops carry no rumor
    edges_.push_back(Edge{a, b});
  }

  /// Capacity hint: room for `edges` add_edge calls without reallocating.
  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Freezes into an immutable Graph; the builder is left empty. A counting
  /// sort by endpoint: O(n + m) time, plus sum_v deg(v) log deg(v) for the
  /// rows that arrive out of order — a row lists its edges in insertion
  /// order, so a generator that adds each node's edges in ascending order
  /// is never sorted again. Peak memory is the added edge list plus offsets
  /// and a neighbor array of two entries per added edge. Throws
  /// std::length_error when the added edges make 2^32 or more arcs, which
  /// 32-bit offsets cannot index.
  [[nodiscard]] Graph build(std::string name) &&;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

/// Immutable simple undirected graph in CSR form.
class Graph {
 public:
  /// Number of nodes n.
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Number of undirected edges m.
  [[nodiscard]] std::size_t num_edges() const noexcept { return offsets_[num_nodes_] / 2; }

  /// deg(v): the number of neighbors of v.
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    assert(v < num_nodes());
    return static_cast<std::uint32_t>(offset(v + 1) - offset(v));
  }

  /// Gamma(v): the neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    assert(v < num_nodes());
    return {neighbors_ + offset(v), neighbors_ + offset(v + 1)};
  }

  /// Uniformly random neighbor of v — the protocol primitive "v contacts a
  /// uniformly random neighbor". Precondition: degree(v) > 0.
  template <class Eng>
  [[nodiscard]] NodeId random_neighbor(NodeId v, Eng& eng) const noexcept {
    const auto deg = degree(v);
    assert(deg > 0 && "random_neighbor on an isolated node");
    return neighbors_[offset(v) + rng::uniform_below(eng, deg)];
  }

  /// The i-th neighbor of v in sorted order; used by couplings that need a
  /// stable enumeration of Gamma(v). Precondition: i < degree(v).
  [[nodiscard]] NodeId neighbor_at(NodeId v, std::uint32_t i) const noexcept {
    assert(i < degree(v));
    return neighbors_[offset(v) + i];
  }

  /// Index of w within neighbors(v), or degree(v) if absent. O(log deg).
  [[nodiscard]] std::uint32_t neighbor_index(NodeId v, NodeId w) const noexcept;

  /// True iff {v, w} is an edge. O(log deg(v)).
  [[nodiscard]] bool has_edge(NodeId v, NodeId w) const noexcept {
    return neighbor_index(v, w) < degree(v);
  }

  /// True iff every node has the same degree (Corollary 3's hypothesis).
  [[nodiscard]] bool is_regular() const noexcept;

  /// True when the CSR arrays live in a mapped graph store rather than
  /// built vectors (diagnostics only; behavior is identical either way).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

  /// Human-readable generator tag, e.g. "hypercube(d=10)".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The raw CSR arrays behind neighbors(): v's slice is
  /// neighbors[offsets[v], offsets[v + 1]). For engines that fetch several
  /// nodes' rows at once (core/trial_lanes.cpp) and for the store writer;
  /// everything else uses neighbors().
  struct Csr {
    const std::uint32_t* offsets;
    const NodeId* neighbors;
  };
  [[nodiscard]] Csr csr() const noexcept { return {offsets_, neighbors_}; }

 private:
  friend class GraphBuilder;
  friend Graph open_graph_store(const std::string& path);
  friend Graph largest_component(const Graph& g);  // shares a connected g's storage

  /// `storage` keeps the n + 1 offsets and offsets[n] neighbors alive.
  Graph(std::shared_ptr<const void> storage, const std::uint32_t* offsets,
        const NodeId* neighbors, NodeId num_nodes, bool mapped, std::string name)
      : storage_(std::move(storage)),
        offsets_(offsets),
        neighbors_(neighbors),
        num_nodes_(num_nodes),
        mapped_(mapped),
        name_(std::move(name)) {}

  [[nodiscard]] std::size_t offset(NodeId v) const noexcept { return offsets_[v]; }

  std::shared_ptr<const void> storage_;
  const std::uint32_t* offsets_;  // size n + 1
  const NodeId* neighbors_;       // size 2m, sorted per node slice
  NodeId num_nodes_;
  bool mapped_;
  std::string name_;
};

}  // namespace rumor::graph
