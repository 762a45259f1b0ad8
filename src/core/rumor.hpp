// Umbrella header for the rumor-spreading library.
//
// Pulls in the full public API: graphs and generators, the synchronous and
// asynchronous protocol engines, and the paper's auxiliary processes and
// couplings. The Monte-Carlo measurement harness (sim/harness.hpp, one-config
// campaigns over sim/campaign.hpp) is not included here, to keep core free of
// threading concerns.
#pragma once

#include "core/async.hpp"              // IWYU pragma: export
#include "core/async_discretized.hpp"  // IWYU pragma: export
#include "core/aux_process.hpp"        // IWYU pragma: export
#include "core/averaging.hpp"          // IWYU pragma: export
#include "core/batch_sync.hpp"         // IWYU pragma: export
#include "core/coupling_blocks.hpp"    // IWYU pragma: export
#include "core/coupling_pull.hpp"      // IWYU pragma: export
#include "core/event_queue.hpp"        // IWYU pragma: export
#include "core/informed_set.hpp"       // IWYU pragma: export
#include "core/informing_forest.hpp"   // IWYU pragma: export
#include "core/coupling_push.hpp"      // IWYU pragma: export
#include "core/protocol.hpp"           // IWYU pragma: export
#include "core/quasirandom.hpp"        // IWYU pragma: export
#include "core/sync.hpp"               // IWYU pragma: export
#include "core/trajectory.hpp"         // IWYU pragma: export
#include "core/trial.hpp"              // IWYU pragma: export
#include "graph/expansion.hpp"         // IWYU pragma: export
#include "graph/generators.hpp"        // IWYU pragma: export
#include "graph/graph.hpp"             // IWYU pragma: export
#include "graph/io.hpp"                // IWYU pragma: export
#include "graph/properties.hpp"        // IWYU pragma: export
