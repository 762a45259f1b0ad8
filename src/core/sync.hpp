// rumor/core: the synchronous rumor-spreading engine (pp, push, pull).
//
// Implements the round-based protocol of Section 2 exactly: in every round
// each node v contacts a uniformly random neighbor w; with push an informed
// caller informs its callee, with pull an uninformed caller gets informed by
// an informed callee, and push-pull allows both. All exchanges within a
// round are evaluated against the *pre-round* informed set ("if before the
// round exactly one of v, w knows the rumor, then the other node gets
// informed in round r as well").
#pragma once

#include "core/protocol.hpp"
#include "core/spread_probe.hpp"
#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// The shared per-trial knobs (core/trial.hpp) are the whole surface: mode,
/// max_ticks (= rounds here), message_loss, record_history, probe,
/// extra_sources, dynamics. The sync engine honors every one of them; the
/// dynamics view additionally begins each round with
/// dynamics->begin_round(r) so churn applies between rounds.
struct SyncOptions : TrialOptions {};

/// Runs one synchronous execution from `source` and reports when every node
/// was informed. Precondition: g connected (otherwise completed == false),
/// source < g.num_nodes().
///
/// Implementation: the word-packed InformedSet fast path (informed_set.hpp)
/// — membership tests read bitset words instead of the 64-bit stamp array,
/// and round commits are word scans over the pending set. The randomness
/// contract is bit-exact: run_sync and the original scan-and-stamp loop
/// (tests/support/reference_engines.hpp) consume the same engine draws in
/// the same order and return identical SyncResults.
[[nodiscard]] SyncResult run_sync(const Graph& g, NodeId source, rng::Engine& eng,
                                  const SyncOptions& options = {});

/// Default round cap used when TrialOptions::max_ticks == 0.
[[nodiscard]] std::uint64_t default_round_cap(NodeId n) noexcept;

}  // namespace rumor::core
