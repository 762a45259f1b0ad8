// rumor/rng: O(1) sampling from arbitrary discrete distributions.
//
// Used by the Chung-Lu and preferential-attachment graph generators (sampling
// nodes proportional to weight/degree) and by the block-coupling machinery of
// Section 5, which must sample a "right-incompatible pair" from the
// non-uniform conditional distribution mu_A (Eq. 1 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace rumor::rng {

/// Walker/Vose alias table: after O(k) preprocessing of k non-negative
/// weights, draws index i with probability w_i / sum(w) in O(1).
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from `weights`. Negative weights are invalid; an
  /// all-zero or empty weight vector yields an empty table (`empty()` true,
  /// sampling is then a precondition violation).
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Draws an index in [0, size()) proportional to its weight.
  /// Precondition: !empty().
  template <class Eng>
  [[nodiscard]] std::size_t sample(Eng& eng) const noexcept {
    const std::size_t column = static_cast<std::size_t>(uniform_below(eng, prob_.size()));
    return uniform01(eng) < prob_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> prob_;        // acceptance probability per column
  std::vector<std::uint32_t> alias_;  // fallback index per column
  double total_ = 0.0;
};

/// Samples an index proportional to weights by one linear scan (O(k)).
/// Preferable to AliasTable when the weights are used exactly once.
/// Precondition: weights non-empty with positive total.
template <class Eng>
[[nodiscard]] std::size_t sample_weighted_once(Eng& eng, std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = uniform01(eng) * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

/// Fisher-Yates shuffle of a span, using the library engine.
template <class Eng, class T>
void shuffle(Eng& eng, std::span<T> items) noexcept {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_below(eng, i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

}  // namespace rumor::rng
