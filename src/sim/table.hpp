// rumor/sim: aligned table output for the experiment binaries.
//
// Every bench binary prints its results as a fixed-width table (one row per
// configuration), mirroring how the reproduced claims would appear as a
// table or figure series in the paper.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace rumor::sim {

/// Collects rows of string cells and renders them with aligned columns.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders to stdout with a header underline, columns padded to content.
  void print() const;

  /// Renders to an arbitrary stream (same format as print()).
  void print(std::ostream& out) const;

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style cell formatting helper: fmt_cell("%.2f", x).
template <class... Args>
[[nodiscard]] std::string fmt_cell(const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return std::string(buf);
}

}  // namespace rumor::sim
