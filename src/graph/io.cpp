#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rumor::graph {

Graph read_edge_list(std::istream& in, std::string name, bool compact_ids) {
  // Every error names the input (`name` is the path when coming through
  // read_edge_list_file) and the 1-based line, so a bad row in a
  // million-line SNAP dump is findable.
  auto fail = [&](std::size_t line_no, const std::string& what) -> std::runtime_error {
    return std::runtime_error("read_edge_list: " + name + ": line " + std::to_string(line_no) +
                              ": " + what);
  };

  std::unordered_map<std::uint64_t, NodeId> remap;
  auto intern = [&](std::uint64_t raw, std::size_t line_no) -> NodeId {
    if (compact_ids) {
      const auto it = remap.emplace(raw, static_cast<NodeId>(remap.size())).first;
      if (remap.size() > 0xffffffffULL) {
        throw fail(line_no, "more than 2^32 - 1 distinct node ids");
      }
      return it->second;
    }
    // Without compaction n = max id + 1 must itself fit a 32-bit NodeId.
    if (raw >= 0xffffffffULL) {
      throw fail(line_no, "id " + std::to_string(raw) + " too large (use compact_ids)");
    }
    return static_cast<NodeId>(raw);
  };

  auto parse_id = [&](const std::string& token, std::size_t line_no) -> std::uint64_t {
    if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
      throw fail(line_no, "malformed node id '" + token + "'");
    }
    try {
      return std::stoull(token);
    } catch (const std::out_of_range&) {
      throw fail(line_no, "id " + token + " out of 64-bit range");
    }
  };

  std::string line;
  std::size_t line_no = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::uint64_t max_id = 0;
  bool any = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and skip blanks.
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r\v\f") == std::string::npos) continue;
    std::istringstream fields(line);
    std::string tu;
    std::string tv;
    fields >> tu;
    if (!(fields >> tv)) throw fail(line_no, "expected two node ids");
    const std::uint64_t u = parse_id(tu, line_no);
    const std::uint64_t v = parse_id(tv, line_no);
    edges.emplace_back(intern(u, line_no), intern(v, line_no));
    max_id = std::max({max_id, u, v});
    any = true;
  }

  const NodeId n = compact_ids ? static_cast<NodeId>(remap.size())
                               : (any ? static_cast<NodeId>(max_id + 1) : 0);
  GraphBuilder builder(n);
  for (const auto& [a, b] : edges) builder.add_edge(a, b);
  return std::move(builder).build(std::move(name));
}

Graph read_edge_list_file(const std::string& path, bool compact_ids) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list_file: cannot open " + path);
  return read_edge_list(in, path, compact_ids);
}

}  // namespace rumor::graph
