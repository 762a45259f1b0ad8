// rumor/graph: plain-text graph serialization.
//
// Interop format: the ubiquitous whitespace-separated edge list, one
// "u v" pair per line, '#' comments, as consumed and produced by SNAP,
// NetworkX, and most graph tools — so measured topologies (e.g. real
// social networks, the paper's motivating domain) can be loaded.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace rumor::graph {

/// Reads an edge list. By default node ids are preserved (n = max id + 1),
/// so an edge list of a graph reads back as that graph; with `compact_ids`
/// set, sparse ids are relabelled to [0, n) in first-appearance order
/// (useful for SNAP dumps with large arbitrary ids). Self-loops and duplicates are dropped
/// (Graph invariants). Lines starting with '#' and blank lines are
/// ignored; '#' also starts an inline comment; tokens after the first two
/// ids on a line are ignored (weight columns). Throws std::runtime_error —
/// always naming the input (`name`, the path when reading a file) and the
/// 1-based line — on malformed ids, a lone id, or (without compaction) ids
/// >= 2^32 - 1 (n = max id + 1 must fit a 32-bit NodeId).
[[nodiscard]] Graph read_edge_list(std::istream& in, std::string name = "edge_list",
                                   bool compact_ids = false);
[[nodiscard]] Graph read_edge_list_file(const std::string& path, bool compact_ids = false);

}  // namespace rumor::graph
