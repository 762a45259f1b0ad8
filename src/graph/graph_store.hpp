// rumor/graph: the packed, memory-mapped on-disk CSR graph store.
//
// Campaigns cannot afford to rebuild — or even duplicate — their one
// dominant data structure per configuration. A *graph store* is the frozen
// CSR written to disk once, in a versioned little-endian format (u32
// offsets, u32 neighbors), with a payload checksum and a provenance header.
// Opening a store mmap()s the file and returns an ordinary `Graph` whose CSR
// pointers aim straight into the mapping: no parse, no copy — one bounds
// pass over the payload — and shared read-only across every configuration,
// trial, thread, and `--shard` process that opens the same file (the page
// cache deduplicates them). A mapped graph is bit-for-bit interchangeable
// with the built graph it was packed from.
//
// The normative byte-level format specification lives in
// docs/GRAPH_FORMAT.md; tools/graph_pack_main.cpp is the packing CLI.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace rumor::graph {

/// File identification. The 8-byte magic doubles as a human-greppable tag;
/// `version` bumps on any layout change and readers reject what they do not
/// understand.
inline constexpr char kGraphStoreMagic[8] = {'R', 'U', 'M', 'O', 'R', 'C', 'S', 'R'};
inline constexpr std::uint32_t kGraphStoreVersion = 1;
/// Fixed header size; the CSR payload starts here (64 bytes keeps the
/// offsets array aligned for direct mapped access).
inline constexpr std::size_t kGraphStoreHeaderBytes = 64;

/// A store's parsed header (plus the trailing strings): everything needed
/// to identify a file without touching the CSR payload. `checksum` is the
/// FNV-1a 64 fingerprint of the payload (offsets || neighbors || name) that
/// campaign checkpoints hash file-backed graphs by.
struct GraphStoreInfo {
  std::uint32_t version = 0;
  std::uint64_t n = 0;         // node count
  std::uint64_t arcs = 0;      // directed adjacency entries = 2m
  std::uint64_t checksum = 0;  // FNV-1a 64 over offsets || neighbors || name
  std::string name;            // the packed graph's Graph::name()
  std::string provenance;      // packer build provenance, one JSON object
  std::uint64_t file_size = 0;

  [[nodiscard]] std::uint64_t num_edges() const noexcept { return arcs / 2; }
};

/// Packs `g` into a store at `path` through json::write_file_atomic, so a
/// crashed pack never leaves a torn store and a written one survives a
/// power loss. `source` is a free note recorded in the provenance header,
/// e.g. the edge-list file or generator spec the graph came from. Throws
/// std::runtime_error naming the path on any I/O failure.
void write_graph_store(const Graph& g, const std::string& path, const std::string& source = "");

/// Reads and validates the header + trailing strings only — O(1) in the
/// graph size. Throws std::runtime_error naming the path and byte offset of
/// the first malformed field.
[[nodiscard]] GraphStoreInfo read_graph_store_info(const std::string& path);

/// Recomputes the payload checksum over the whole file (O(file size)) and
/// throws std::runtime_error on any mismatch or layout error; returns the
/// verified header. The expensive integrity pass `open_graph_store`
/// deliberately skips.
[[nodiscard]] GraphStoreInfo verify_graph_store(const std::string& path);

/// Opens a store as an immutable mmap-backed Graph. Validates the header,
/// that the file size matches the declared layout, and, in one unhashed
/// O(n + m) pass, that every row lies inside the mapping: offsets start at
/// 0, never decrease and end at the arc count, and every neighbor id is
/// below n. It skips the payload checksum, so a store corrupted in some
/// other way (a wrong but in-range id) opens; verify_graph_store catches
/// that. Throws std::runtime_error naming the path and byte offset of the
/// first problem it finds.
[[nodiscard]] Graph open_graph_store(const std::string& path);

/// Human-readable header dump (the `graph_pack --info` output): one
/// "key: value" line per field. `verified` appends the integrity note.
[[nodiscard]] std::string graph_store_info_dump(const GraphStoreInfo& info,
                                                const std::string& path, bool verified = false);

}  // namespace rumor::graph
