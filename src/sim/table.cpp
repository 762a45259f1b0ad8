#include "sim/table.hpp"

#include <algorithm>
#include <cassert>
#include <iostream>

namespace rumor::sim {

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print() const { print(std::cout); }

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << "  ";
      out << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c == 0 ? 0 : 2);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace rumor::sim
