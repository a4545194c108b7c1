// Trace recording shared by replay_observed and serve_fleet.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "instrument/trace.hpp"

namespace perfbench {

/// Records replica `name` at scale small on a kThreads team (verification
/// counted in `out`) and returns its events with the per-thread streams
/// merged round-robin, 64 events per thread per turn. Each thread's own event
/// order is what it recorded; only the cross-thread interleaving, which
/// depends on how the recording run happened to be scheduled, is replaced by
/// a fixed one, so a replay of the result does the same work on every run.
[[nodiscard]] std::vector<commscope::instrument::TraceEvent> record_small(
    const std::string& name, Outcome& out);

}  // namespace perfbench
