#include "core/sync.hpp"

#include <cassert>
#include <cmath>

#include "core/informed_set.hpp"
#include "core/scan_kind.hpp"
#include "dynamics/churn.hpp"

namespace rumor::core {

std::uint64_t default_round_cap(NodeId n) noexcept {
  const double nn = static_cast<double>(n);
  const double cap = 200.0 * nn * std::log2(nn + 2.0) + 1000.0;
  return static_cast<std::uint64_t>(cap);
}

namespace {

/// Seeds source + extra_sources at round 0; returns the informed count.
NodeId seed_sources(NodeId source, const SyncOptions& options, SyncResult& result) {
  result.informed_round[source] = 0;
  NodeId count = 1;
  for (NodeId extra : options.extra_sources) {
    assert(extra < result.informed_round.size());
    if (result.informed_round[extra] == kNeverRound) {
      result.informed_round[extra] = 0;
      ++count;
    }
  }
  return count;
}

/// The round loop, specialized per (mode, loss, scan kind, probe) so the
/// inner scan carries no per-node dispatch. Randomness consumption is
/// identical to the reference scan (tests/support/reference_engines.cpp)
/// for every specialization: one neighbor draw per non-isolated node, plus
/// one Bernoulli iff exactly one endpoint is informed and loss is
/// configured — membership moved from the 64-bit stamp array into
/// InformedSet words, which consumes nothing. The lossless variants are
/// additionally branch-free past the neighbor draw:
/// the exchange outcome is ORed into the pending word as a shifted 0/1
/// mask, so the mixing rounds (informed set near half full, where the
/// exchange branch is unpredictable) pay no mispredictions.
//
// Why the bitset sees exactly the reference's informed set: stamps written
// during a round are always the round number r itself, so while round r is
// scanning, every entry of informed_round is either < r (informed before)
// or kNeverRound — "informed before the round" and "ever stamped" coincide.
// The bitset holds the committed (pre-round) set, `pending` collects this
// round's targets (always the uninformed endpoint, so overlap with the
// committed set is impossible), and the commit is a word-scan that stamps
// each newly informed node once, exactly like the reference's dedup loop.
//
// The engine is copied into a local and written back at exit
// (docs/ENGINES.md, "The two hot loops"): held by reference, its four
// state words would be stored after every draw, since the uint64_t
// pending-word stores may alias them.
template <Mode M, bool HasLoss, ScanKind K, bool HasProbe>
void run_rounds(const Graph& g, rng::Engine& caller_eng, const SyncOptions& options,
                SyncResult& result, NodeId& informed_count, std::uint64_t cap) {
  rng::Engine eng = caller_eng;
  const NodeId n = g.num_nodes();
  dynamics::DynamicGraphView* const view = options.dynamics;
  const double loss = options.message_loss;

  InformedSet informed(n);
  InformedSet pending(n);
  for (NodeId v = 0; v < n; ++v) {
    if (result.informed_round[v] == 0) informed.set(v);
  }

  const std::uint32_t regular_degree = K == ScanKind::kRegular ? g.degree(0) : 0;
  const NodeId* const flat_neighbors =
      K == ScanKind::kRegular ? g.neighbors(0).data() : nullptr;

  for (std::uint64_t r = 1; informed_count < n && r <= cap; ++r) {
    if constexpr (K == ScanKind::kView) view->begin_round(r);  // churn between rounds
    const std::uint64_t* const __restrict informed_words = informed.words().data();
    std::uint64_t* const __restrict pending_words = pending.words_data();
    const NodeId* row = flat_neighbors;  // kRegular: v's slice, advanced in step
    for (NodeId base = 0; base < n; base += 64) {
      // One sequential word load covers the caller side of 64 contacts; only
      // the callee membership probe below touches the words at random.
      std::uint64_t callers = informed_words[base >> 6];
      const NodeId limit = n - base < 64 ? n - base : 64;
      for (NodeId k = 0; k < limit; ++k, callers >>= 1) {
        const NodeId v = base + k;
        NodeId w;
        if constexpr (K == ScanKind::kView) {
          if (view->degree(v) == 0) continue;  // churned-out: nothing to contact
          w = view->sample(v, eng);
        } else if constexpr (K == ScanKind::kRegular) {
          w = row[rng::uniform_below(eng, regular_degree)];
          row += regular_degree;
        } else {
          const auto nbrs = g.neighbors(v);
          const auto deg = static_cast<std::uint32_t>(nbrs.size());
          if (deg == 0) continue;
          w = nbrs[rng::uniform_below(eng, deg)];
        }
        const std::uint64_t v_in = callers & 1u;
        const std::uint64_t w_in = (informed_words[w >> 6] >> (w & 63u)) & 1u;
        if constexpr (HasProbe) {
          // The probe path classifies and updates `pending` in one go:
          // probe_windowed's test_and_set fires exactly for the writes the
          // uninstrumented paths below perform (idempotent re-sets and
          // informed/lost targets set nothing), and the loss Bernoulli is
          // drawn under the same endpoint condition — so result bits and
          // randomness consumption are identical with and without a probe.
          const bool vi = v_in != 0;
          const bool wi = w_in != 0;
          bool lost = false;
          if constexpr (HasLoss) {
            if (vi != wi) lost = rng::bernoulli(eng, loss);
          }
          probe_windowed(*options.probe, M, vi, wi, lost, v, w, pending);
        } else if constexpr (HasLoss) {
          if (v_in == w_in) continue;  // both or neither informed: no exchange
          if (rng::bernoulli(eng, loss)) continue;
          if constexpr (M == Mode::kPush) {
            if (v_in != 0) pending.set(w);
          } else if constexpr (M == Mode::kPull) {
            if (w_in != 0) pending.set(v);
          } else {
            pending.set(v_in != 0 ? w : v);
          }
        } else {
          // Branch-free: exchange == 0 ORs a zero mask (a no-op store).
          std::uint64_t exchange;
          NodeId target;
          if constexpr (M == Mode::kPush) {
            exchange = v_in & ~w_in;
            target = w;
          } else if constexpr (M == Mode::kPull) {
            exchange = w_in & ~v_in;
            target = v;
          } else {
            exchange = v_in ^ w_in;
            target = v_in != 0 ? w : v;
          }
          pending_words[target >> 6] |= (exchange & 1u) << (target & 63u);
        }
      }
    }
    // Commit after the scan so every exchange saw the pre-round snapshot.
    // With a probe attached, pending bits double as the round's freshness
    // marks; draining here clears them for the next round either way.
    informed_count +=
        informed.absorb_drain(pending, [&](NodeId u) { result.informed_round[u] = r; });
    result.rounds = r;
  }
  caller_eng = eng;
}

}  // namespace

SyncResult run_sync(const Graph& g, NodeId source, rng::Engine& eng,
                    const SyncOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);

  SyncResult result;
  result.informed_round.assign(n, kNeverRound);
  NodeId informed_count = seed_sources(source, options, result);

  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  specialize(options.mode, options.message_loss > 0.0, choose_scan(g, options.dynamics != nullptr),
             options.probe != nullptr, [&]<Mode M, bool HasLoss, ScanKind K, bool HasProbe>() {
               run_rounds<M, HasLoss, K, HasProbe>(g, eng, options, result, informed_count, cap);
             });

  result.completed = (informed_count == n);
  if (!result.completed) result.rounds = cap;
  if (options.record_history) {
    result.informed_count_history = informed_round_curve(result.informed_round, result.rounds);
  }
  return result;
}

}  // namespace rumor::core
