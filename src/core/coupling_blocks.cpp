#include "core/coupling_blocks.hpp"

#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/informed_set.hpp"

namespace rumor::core {

namespace {

/// Flag set with O(1) membership, insert and O(members) clear — InformedSet
/// words back the membership test, a members list backs the cheap clear.
class NodeFlags {
 public:
  explicit NodeFlags(NodeId n) : flag_(n) {}

  void insert(NodeId v) {
    if (flag_.test_and_set(v)) members_.push_back(v);
  }
  [[nodiscard]] bool contains(NodeId v) const { return flag_.test(v); }
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  void clear() {
    for (NodeId v : members_) flag_.reset(v);
    members_.clear();
  }
  void swap(NodeFlags& other) noexcept {
    std::swap(flag_, other.flag_);
    members_.swap(other.members_);
  }

 private:
  InformedSet flag_;
  std::vector<NodeId> members_;
};

struct Pair {
  NodeId x;
  NodeId y;
};

/// pp-side state: informed set plus parallel round application.
struct SyncSide {
  explicit SyncSide(NodeId n) : informed(n) {}

  InformedSet informed;
  NodeId count = 0;
  std::vector<NodeId> scratch;

  void mark(NodeId v) {
    if (informed.test_and_set(v)) ++count;
  }

  /// Applies `pairs` as one synchronous push-pull round: all exchanges are
  /// evaluated against the pre-round snapshot, then committed.
  void apply_round(const std::vector<Pair>& pairs) {
    scratch.clear();
    for (const Pair& p : pairs) {
      const bool x_in = informed.test(p.x);
      const bool y_in = informed.test(p.y);
      if (x_in == y_in) continue;
      scratch.push_back(x_in ? p.y : p.x);
    }
    for (NodeId v : scratch) mark(v);
  }
};

}  // namespace

BlockStats run_block_coupling(const Graph& g, NodeId source, rng::Engine& eng,
                              const BlockCouplingOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);
  assert(n >= 2);

  const std::uint64_t capacity =
      options.block_capacity != 0
          ? options.block_capacity
          : std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                           std::floor(std::sqrt(static_cast<double>(n)))));
  const std::uint64_t step_cap =
      options.max_steps != 0 ? options.max_steps : default_step_cap(n);

  BlockStats stats;

  // pp-a side.
  InformedSet informed_a(n);
  NodeId count_a = 1;
  informed_a.set(source);
  // pp side.
  SyncSide pp(n);
  pp.mark(source);

  // Executes one pp-a step (x contacts y, push-pull). Advances time by one
  // Exp(n) clock gap.
  auto exec_step = [&](NodeId x, NodeId y) {
    ++stats.steps;
    stats.async_time += rng::exponential(eng, static_cast<double>(n));
    const bool x_in = informed_a.test(x);
    const bool y_in = informed_a.test(y);
    if (x_in == y_in) return static_cast<NodeId>(n);  // no-op step
    const NodeId target = x_in ? y : x;
    informed_a.set(target);
    ++count_a;
    return target;
  };

  // The paper's invariant I(pp-a) ⊆ I(pp), checked word-wise: n/64 ANDs
  // instead of n flag loads.
  auto check_subset = [&] {
    if (!informed_a.is_subset_of(pp.informed)) stats.subset_invariant_held = false;
  };

  NodeFlags touched(n);
  NodeFlags newly(n);
  NodeFlags prev_touched(n);
  NodeFlags prev_newly(n);
  std::vector<Pair> block_pairs;
  std::vector<Pair> round_pairs;  // scratch for special-block full rounds

  bool have_pending = false;   // step carried over from a left-incompatible closure
  Pair pending{0, 0};
  bool do_special = false;     // next block is special

  while (count_a < n && stats.steps < step_cap) {
    if (do_special) {
      // Special block: run fresh full pp rounds until one contains a pair
      // right-incompatible with the previous normal block, i.e. (v, c_v)
      // with v not touched by it and c_v informed during it.
      do_special = false;
      ++stats.special_blocks;
      std::vector<Pair> candidates;
      for (;;) {
        round_pairs.clear();
        candidates.clear();
        for (NodeId v = 0; v < n; ++v) {
          const NodeId c = g.random_neighbor(v, eng);
          round_pairs.push_back(Pair{v, c});
          if (!prev_touched.contains(v) && prev_newly.contains(c)) {
            candidates.push_back(Pair{v, c});
          }
        }
        pp.apply_round(round_pairs);
        ++stats.rounds;
        ++stats.special_rounds;
        if (!candidates.empty()) break;
      }
      // pp-a executes one replacement step drawn from the round's
      // right-incompatible pairs. Eq. (1) of the paper requires the choice
      // to average to S | S in A across rounds (mu_{A|D}); we realize the
      // natural member of that family — weight each candidate by its step
      // probability Pr[S = (a, b)] = 1/(n deg(a)) — which matches the
      // target marginal up to the round-composition correction the paper's
      // full version constructs, which this coupling substitutes for.
      double total_w = 0.0;
      for (const Pair& p : candidates) total_w += 1.0 / static_cast<double>(g.degree(p.x));
      double pick = rng::uniform01(eng) * total_w;
      Pair chosen = candidates.back();
      for (const Pair& p : candidates) {
        pick -= 1.0 / static_cast<double>(g.degree(p.x));
        if (pick < 0.0) {
          chosen = p;
          break;
        }
      }
      exec_step(chosen.x, chosen.y);
      check_subset();
      if (pp.count == n && stats.sync_rounds_to_complete == kNeverRound) {
        stats.sync_rounds_to_complete = stats.rounds;
      }
      continue;  // next block is normal, nothing pending
    }

    // Normal block.
    touched.clear();
    newly.clear();
    block_pairs.clear();
    enum class Closure { kFull, kLeft, kRight, kRunEnded } closure = Closure::kRunEnded;

    while (stats.steps < step_cap) {
      Pair s{};
      if (have_pending) {
        s = pending;
        have_pending = false;
      } else {
        s.x = static_cast<NodeId>(rng::uniform_below(eng, n));
        s.y = g.random_neighbor(s.x, eng);
      }

      if (touched.contains(s.x)) {
        // Condition (2): left-incompatible. S starts the next block.
        pending = s;
        have_pending = true;
        closure = Closure::kLeft;
        break;
      }
      if (newly.contains(s.y)) {
        // Condition (3): right-incompatible. S is discarded and replaced by
        // the special block's draw.
        closure = Closure::kRight;
        break;
      }

      // Execute the step inside the block.
      const NodeId informed = exec_step(s.x, s.y);
      touched.insert(s.x);
      touched.insert(s.y);
      block_pairs.push_back(s);
      if (informed < n) newly.insert(informed);

      if (count_a == n) {
        closure = Closure::kRunEnded;
        break;
      }
      if (block_pairs.size() >= capacity) {
        closure = Closure::kFull;
        break;
      }
    }

    // Map the block to a single pp round executing exactly its pairs.
    if (!block_pairs.empty()) {
      pp.apply_round(block_pairs);
      ++stats.rounds;
    }
    switch (closure) {
      case Closure::kFull: ++stats.full_blocks; break;
      case Closure::kLeft: ++stats.left_blocks; break;
      case Closure::kRight:
        ++stats.right_blocks;
        do_special = true;
        prev_touched.swap(touched);
        prev_newly.swap(newly);
        break;
      case Closure::kRunEnded: break;
    }
    check_subset();
    if (pp.count == n && stats.sync_rounds_to_complete == kNeverRound) {
      stats.sync_rounds_to_complete = stats.rounds;
    }
  }

  stats.completed = (count_a == n);
  return stats;
}

}  // namespace rumor::core
