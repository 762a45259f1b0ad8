// Test support (namespace rumor::core): the retained reference engines, the
// acceptance oracles of the fast engine cores (tests/test_fastpath.cpp).
//
// Each is the original, unoptimized loop of its engine. The randomness
// contract is bit-exact: a reference and its production engine consume the
// same draws in the same order and return identical results and engine
// state.
#pragma once

#include "core/async.hpp"
#include "core/sync.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// The original scan-and-stamp round loop over the informed_round array.
/// Bit-for-bit (including engine state) identical to run_sync, which keeps
/// membership in InformedSet words instead.
[[nodiscard]] SyncResult run_sync_reference(const Graph& g, NodeId source, rng::Engine& eng,
                                            const SyncOptions& options = {});

/// Identical to run_async except that the per-edge view runs on the
/// original binary heap instead of the calendar EventQueue
/// (event_queue.hpp). Both pop events in strictly increasing timestamp
/// order with FIFO tie-breaking, so results — and engine state — are
/// bit-identical. The other views are run_async itself.
[[nodiscard]] AsyncResult run_async_reference(const Graph& g, NodeId source, rng::Engine& eng,
                                              const AsyncOptions& options = {});

}  // namespace rumor::core
