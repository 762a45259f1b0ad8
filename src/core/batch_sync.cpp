#include "core/batch_sync.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/scan_kind.hpp"
#include "core/sync.hpp"

namespace rumor::core {

namespace {

/// Serves engine output in 32-bit halves: two neighbor draws (or loss
/// coins) share one xoshiro step, half the stream cost of the single-trial
/// engines' 64-bit draws. Part of the engine's documented randomness-
/// consumption model (docs/ENGINES.md) — NOT interchangeable with
/// rng::uniform_below, which is exactly why batch_sync is held to
/// distributional rather than bit-identical equality. Holds the engine by
/// value, so its state stays in registers through the round loop (the
/// loop's uint64_t word stores could otherwise alias it); the loop writes
/// it back to the caller's engine at exit.
struct HalfSource {
  rng::Engine eng;
  std::uint64_t word = 0;
  bool have_low = false;

  std::uint32_t next32() {
    if (have_low) {
      have_low = false;
      return static_cast<std::uint32_t>(word);
    }
    word = eng.next();
    have_low = true;
    return static_cast<std::uint32_t>(word >> 32);
  }
};

/// Lemire's unbiased bounded draw on 32-bit halves (the 64-bit original is
/// rng::uniform_below). Bounds here are node degrees, always < 2^32. Forced
/// inline: as an out-of-line call it takes the source's address, and the
/// engine state goes back to memory on every draw.
[[gnu::always_inline]] inline std::uint32_t uniform_below32(HalfSource& src,
                                                            std::uint32_t bound) {
  std::uint64_t m = static_cast<std::uint64_t>(src.next32()) * bound;
  auto low = static_cast<std::uint32_t>(m);
  if (low < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (low < threshold) {
      m = static_cast<std::uint64_t>(src.next32()) * bound;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

/// The lane-parallel round loop, specialized per (mode, loss, regularity)
/// like run_sync's scan. Per node, two word aggregates over the neighbor
/// informed words — nbr_or (lanes with >= 1 informed neighbor) and nbr_and
/// (lanes where every neighbor is informed) — split each lane into one of
/// four per-node outcomes *before* any randomness is spent:
///
///   push, all neighbors informed   -> no-op, skipped (push cannot fire);
///   pull, no neighbor informed     -> no-op, skipped (pull cannot fire);
///   pull, all neighbors informed   -> fires surely: no neighbor draw, only
///                                     the loss coin (if any);
///   otherwise                      -> a real contact draw.
///
/// Skipped draws are ones run_sync performs but whose outcomes cannot
/// change the lane's informed set, and the sure-pull shortcut samples the
/// exact success law (any neighbor is informed, so which one is contacted
/// is irrelevant) — each lane's process law is unchanged; this is where
/// the batch engine's per-trial throughput comes from, since the mixing
/// phase makes most of the graph interior a no-op in every lane at once.
/// The aggregate loop exits early once the masks it feeds are settled
/// (monotone: nbr_and only loses candidate bits, nbr_or only covers more),
/// so sparse frontiers do not pay the full degree scan. The draw bodies
/// are branch-free in the lossless case: exchange outcomes are ORed into
/// the pending word as masked bits, so mixing rounds pay no
/// mispredictions. With loss, the Bernoulli is drawn iff the exchange
/// would fire (the same endpoint condition run_sync uses), at 2^-32 coin
/// resolution — far below anything a distributional gate can resolve.
template <Mode M, bool HasLoss, bool Regular>
void run_lane_rounds(const Graph& g, rng::Engine& eng, std::uint64_t loss_threshold,
                     std::uint64_t cap, std::vector<std::uint64_t>& informed,
                     std::vector<std::uint64_t>& pending,
                     std::array<NodeId, kMaxBatchLanes>& remaining, std::uint64_t& live,
                     BatchSyncResult& out) {
  HalfSource src{eng};
  const NodeId n = g.num_nodes();
  const std::uint32_t regular_degree = Regular ? g.degree(0) : 0;
  const NodeId* const flat_neighbors = Regular ? g.neighbors(0).data() : nullptr;
  std::uint64_t* const __restrict informed_words = informed.data();
  std::uint64_t* const __restrict pending_words = pending.data();

  for (std::uint64_t r = 1; live != 0 && r <= cap; ++r) {
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t caller = informed_words[v];
      std::uint64_t push_cand = 0;
      std::uint64_t pull_cand = 0;
      if constexpr (M == Mode::kPush) {
        push_cand = live & caller;
        if (push_cand == 0) continue;
      } else if constexpr (M == Mode::kPull) {
        pull_cand = live & ~caller;
        if (pull_cand == 0) continue;
      } else {
        push_cand = live & caller;
        pull_cand = live & ~caller;
      }
      const NodeId* row;
      std::uint32_t deg;
      if constexpr (Regular) {
        deg = regular_degree;
        row = flat_neighbors + static_cast<std::uint64_t>(v) * regular_degree;
      } else {
        const auto nbrs = g.neighbors(v);
        deg = static_cast<std::uint32_t>(nbrs.size());
        if (deg == 0) continue;
        row = nbrs.data();
      }
      std::uint64_t nbr_or = 0;
      std::uint64_t nbr_and = ~std::uint64_t{0};
      for (std::uint32_t i = 0; i < deg; ++i) {
        nbr_or |= informed_words[row[i]];
        nbr_and &= informed_words[row[i]];
        // Settled once no candidate lane can still be a sure-fire or a
        // sure-skip: and-bits only shrink and or-bits only grow, so at
        // this point the three masks below equal their full-degree values.
        if (((push_cand | pull_cand) & nbr_and) == 0 && (pull_cand & ~nbr_or) == 0) break;
      }
      if constexpr (M != Mode::kPush) {
        const std::uint64_t sure = pull_cand & nbr_and;
        if (sure != 0) {
          if constexpr (!HasLoss) {
            pending_words[v] |= sure;
          } else {
            std::uint64_t coin = sure;
            do {
              const std::uint64_t bit = coin & (~coin + 1);
              coin &= coin - 1;
              if (static_cast<std::uint64_t>(src.next32()) >= loss_threshold) {
                pending_words[v] |= bit;
              }
            } while (coin != 0);
          }
        }
        std::uint64_t draw = pull_cand & nbr_or & ~nbr_and;
        while (draw != 0) {
          const auto lane = static_cast<unsigned>(std::countr_zero(draw));
          draw &= draw - 1;
          const std::uint64_t bit = 1ull << lane;
          const std::uint64_t w_word = informed_words[row[uniform_below32(src, deg)]];
          if constexpr (!HasLoss) {
            // Caller uninformed by construction: learn iff callee knows.
            pending_words[v] |= bit & w_word;
          } else {
            if ((w_word & bit) != 0 &&
                static_cast<std::uint64_t>(src.next32()) >= loss_threshold) {
              pending_words[v] |= bit;
            }
          }
        }
      }
      if constexpr (M != Mode::kPull) {
        std::uint64_t draw = push_cand & ~nbr_and;
        while (draw != 0) {
          const auto lane = static_cast<unsigned>(std::countr_zero(draw));
          draw &= draw - 1;
          const std::uint64_t bit = 1ull << lane;
          const NodeId w = row[uniform_below32(src, deg)];
          if constexpr (!HasLoss) {
            // Caller informed by construction: transmit iff callee is not.
            pending_words[w] |= bit & ~informed_words[w];
          } else {
            if ((informed_words[w] & bit) == 0 &&
                static_cast<std::uint64_t>(src.next32()) >= loss_threshold) {
              pending_words[w] |= bit;
            }
          }
        }
      }
    }
    // Commit after the scan so every exchange saw the pre-round snapshot;
    // the word scan stamps each newly informed (node, lane) pair once and
    // retires lanes whose last node just learned the rumor.
    for (NodeId v = 0; v < n; ++v) {
      std::uint64_t newly = pending_words[v] & ~informed_words[v];
      pending_words[v] = 0;
      if (newly == 0) continue;
      informed_words[v] |= newly;
      do {
        const auto lane = static_cast<unsigned>(std::countr_zero(newly));
        newly &= newly - 1;
        if (--remaining[lane] == 0) {
          out.rounds[lane] = r;
          live &= ~(1ull << lane);
        }
      } while (newly != 0);
    }
  }
  eng = src.eng;
}

template <Mode M, bool HasLoss>
void dispatch_scan(const Graph& g, rng::Engine& eng, std::uint64_t loss_threshold,
                   std::uint64_t cap, std::vector<std::uint64_t>& informed,
                   std::vector<std::uint64_t>& pending,
                   std::array<NodeId, kMaxBatchLanes>& remaining, std::uint64_t& live,
                   BatchSyncResult& out) {
  // run_sync's regular scan: one flat neighbor row, no per-node offsets.
  if (choose_scan(g, false) == ScanKind::kRegular) {
    run_lane_rounds<M, HasLoss, true>(g, eng, loss_threshold, cap, informed, pending,
                                      remaining, live, out);
  } else {
    run_lane_rounds<M, HasLoss, false>(g, eng, loss_threshold, cap, informed, pending,
                                       remaining, live, out);
  }
}

template <Mode M>
void dispatch_loss(const Graph& g, rng::Engine& eng, double message_loss, std::uint64_t cap,
                   std::vector<std::uint64_t>& informed, std::vector<std::uint64_t>& pending,
                   std::array<NodeId, kMaxBatchLanes>& remaining, std::uint64_t& live,
                   BatchSyncResult& out) {
  // Coin threshold in 32-bit halves: lost iff draw < loss * 2^32 (the
  // loss == 1.0 endpoint maps to 2^32, above every 32-bit draw).
  const auto loss_threshold = static_cast<std::uint64_t>(message_loss * 4294967296.0);
  if (message_loss > 0.0) {
    dispatch_scan<M, true>(g, eng, loss_threshold, cap, informed, pending, remaining, live,
                           out);
  } else {
    dispatch_scan<M, false>(g, eng, 0, cap, informed, pending, remaining, live, out);
  }
}

}  // namespace

BatchSyncResult run_batch_sync(const Graph& g, NodeId source, rng::Engine& eng,
                               const BatchSyncOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);
  if (options.lanes == 0 || options.lanes > kMaxBatchLanes) {
    throw std::invalid_argument("batch_sync: lanes must be in 1.." +
                                std::to_string(kMaxBatchLanes));
  }
  if (options.record_history || options.probe != nullptr || options.dynamics != nullptr) {
    throw std::runtime_error(
        "batch_sync: record_history, probe, and dynamics are unsupported "
        "(use the sync engine for per-trial telemetry)");
  }

  const std::uint32_t lanes = options.lanes;
  const std::uint64_t lane_mask =
      lanes == kMaxBatchLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const std::uint64_t cap = options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  BatchSyncResult out;
  out.lanes = lanes;
  out.rounds.assign(lanes, cap);

  std::vector<std::uint64_t> informed(n, 0);
  std::vector<std::uint64_t> pending(n, 0);
  NodeId seeded = 1;
  informed[source] = lane_mask;
  for (NodeId extra : options.extra_sources) {
    assert(extra < n);
    if (informed[extra] == 0) {
      informed[extra] = lane_mask;
      ++seeded;
    }
  }

  std::array<NodeId, kMaxBatchLanes> remaining{};
  remaining.fill(n - seeded);
  std::uint64_t live = n - seeded == 0 ? 0 : lane_mask;
  if (live == 0) {
    out.rounds.assign(lanes, 0);
    out.completed = true;
    return out;
  }

  switch (options.mode) {
    case Mode::kPush:
      dispatch_loss<Mode::kPush>(g, eng, options.message_loss, cap, informed, pending,
                                 remaining, live, out);
      break;
    case Mode::kPull:
      dispatch_loss<Mode::kPull>(g, eng, options.message_loss, cap, informed, pending,
                                 remaining, live, out);
      break;
    case Mode::kPushPull:
      dispatch_loss<Mode::kPushPull>(g, eng, options.message_loss, cap, informed, pending,
                                     remaining, live, out);
      break;
  }

  out.completed = live == 0;
  out.total_rounds = std::accumulate(out.rounds.begin(), out.rounds.end(), std::uint64_t{0});
  return out;
}

}  // namespace rumor::core
