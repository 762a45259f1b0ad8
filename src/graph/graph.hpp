// rumor/graph: immutable compressed-sparse-row graphs.
//
// Every protocol engine's inner loop is "pick a uniformly random neighbor of
// v", so the adjacency representation is a frozen CSR: one offsets array and
// one flat neighbor array. Uniform neighbor selection is a single bounded
// uniform plus one indexed load.
//
// A Graph reads its CSR arrays through raw pointers, so the same type serves
// two storage backends behind one adjacency interface:
//
//   * owned — GraphBuilder::build() freezes edges into vectors the Graph
//     owns (every generator and the edge-list reader produce these);
//   * mapped — graph_store.hpp opens a packed on-disk CSR via mmap and hands
//     the Graph pointers into the mapping (plus a shared handle keeping it
//     alive). Offsets in a packed store may be 32-bit (chosen at pack time
//     when 2m fits); the accessors branch once on the stored width.
//
// Engines, couplings, and dynamics overlays are agnostic to the backend: a
// mapped graph is bit-for-bit interchangeable with the in-memory graph it
// was packed from (tests/test_graph_store.cpp).
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

namespace detail {
/// graph_store.cpp's private construction hook for mapped graphs; keeps the
/// pointer-wiring constructor out of the public Graph surface.
struct GraphAccess;
}  // namespace detail

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
  void add_edge(NodeId a, NodeId b);

  /// Freezes into an immutable Graph; the builder is left empty. A counting
  /// sort by endpoint: O(n + m + sum_v deg(v) log deg(v)) time, and peak
  /// memory is the added edge list plus offsets and a neighbor array of
  /// two entries per added edge.
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
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_arcs_ / 2; }

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
  /// owned vectors (diagnostics only; behavior is identical either way).
  [[nodiscard]] bool is_mapped() const noexcept { return mapping_ != nullptr; }

  /// Human-readable generator tag, e.g. "hypercube(d=10)".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The raw CSR arrays behind neighbors(): v's slice is
  /// neighbors[offset(v), offset(v + 1)), with exactly one of offsets32 /
  /// offsets64 non-null. For engines that fetch several nodes' rows at
  /// once (core/trial_lanes.cpp); everything else uses neighbors().
  struct Csr {
    const std::uint32_t* offsets32;
    const std::uint64_t* offsets64;
    const NodeId* neighbors;
  };
  [[nodiscard]] Csr csr() const noexcept { return {offsets32_, offsets64_, neighbors_}; }

 private:
  friend class GraphBuilder;
  friend struct detail::GraphAccess;

  /// CSR offset of v's adjacency slice. Mapped stores may use the compact
  /// 32-bit encoding; owned storage is always 64-bit. The branch is
  /// perfectly predicted (the width never changes within a graph).
  [[nodiscard]] std::size_t offset(NodeId v) const noexcept {
    return offsets32_ != nullptr ? offsets32_[v] : static_cast<std::size_t>(offsets64_[v]);
  }

  /// Owned-storage constructor (GraphBuilder).
  Graph(std::vector<std::uint64_t> offsets, std::vector<NodeId> neighbors, std::string name)
      : owned_offsets_(std::move(offsets)),
        owned_neighbors_(std::move(neighbors)),
        offsets64_(owned_offsets_.data()),
        neighbors_(owned_neighbors_.data()),
        num_nodes_(static_cast<NodeId>(owned_offsets_.size() - 1)),
        num_arcs_(owned_neighbors_.size()),
        name_(std::move(name)) {}

  /// Mapped-storage constructor (detail::GraphAccess / graph_store.cpp).
  /// Exactly one of offsets32/offsets64 is non-null; `mapping` keeps the
  /// bytes the pointers reference alive for the Graph's lifetime.
  Graph(std::shared_ptr<const void> mapping, const std::uint32_t* offsets32,
        const std::uint64_t* offsets64, const NodeId* neighbors, NodeId num_nodes,
        std::size_t num_arcs, std::string name)
      : mapping_(std::move(mapping)),
        offsets32_(offsets32),
        offsets64_(offsets64),
        neighbors_(neighbors),
        num_nodes_(num_nodes),
        num_arcs_(num_arcs),
        name_(std::move(name)) {}

  // Owned backend (empty for mapped graphs). Copy/move rules: the compiler-
  // generated copy would leave the pointers aiming at the source's vectors,
  // so spell them out to re-anchor.
  std::vector<std::uint64_t> owned_offsets_;  // size n + 1
  std::vector<NodeId> owned_neighbors_;       // size 2m, sorted per node slice
  /// Mapped backend: opaque handle keeping an mmap'd store alive.
  std::shared_ptr<const void> mapping_;

  const std::uint32_t* offsets32_ = nullptr;  // mapped compact offsets, or null
  const std::uint64_t* offsets64_ = nullptr;  // owned / mapped wide offsets
  const NodeId* neighbors_ = nullptr;
  NodeId num_nodes_ = 0;
  std::size_t num_arcs_ = 0;  // 2m
  std::string name_;

 public:
  Graph(const Graph& other) { *this = other; }
  Graph& operator=(const Graph& other) {
    if (this == &other) return *this;
    owned_offsets_ = other.owned_offsets_;
    owned_neighbors_ = other.owned_neighbors_;
    mapping_ = other.mapping_;
    num_nodes_ = other.num_nodes_;
    num_arcs_ = other.num_arcs_;
    name_ = other.name_;
    if (other.mapping_ != nullptr) {
      offsets32_ = other.offsets32_;
      offsets64_ = other.offsets64_;
      neighbors_ = other.neighbors_;
    } else {
      offsets32_ = nullptr;
      offsets64_ = owned_offsets_.data();
      neighbors_ = owned_neighbors_.data();
    }
    return *this;
  }
  Graph(Graph&& other) noexcept { *this = std::move(other); }
  Graph& operator=(Graph&& other) noexcept {
    if (this == &other) return *this;
    owned_offsets_ = std::move(other.owned_offsets_);
    owned_neighbors_ = std::move(other.owned_neighbors_);
    mapping_ = std::move(other.mapping_);
    num_nodes_ = other.num_nodes_;
    num_arcs_ = other.num_arcs_;
    name_ = std::move(other.name_);
    if (mapping_ != nullptr) {
      offsets32_ = other.offsets32_;
      offsets64_ = other.offsets64_;
      neighbors_ = other.neighbors_;
    } else {
      // Moved vectors keep their heap buffers, so re-anchoring is exact.
      offsets32_ = nullptr;
      offsets64_ = owned_offsets_.data();
      neighbors_ = owned_neighbors_.data();
    }
    other.offsets32_ = nullptr;
    other.offsets64_ = nullptr;
    other.neighbors_ = nullptr;
    other.num_nodes_ = 0;
    other.num_arcs_ = 0;
    return *this;
  }
  ~Graph() = default;
};

}  // namespace rumor::graph
