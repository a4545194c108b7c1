// The benchmark's three workloads. Each measures for RunConfig::seconds,
// checks the library's outputs (every check is counted in the Outcome) and
// fills the Outcome's metrics: the end-to-end set when cfg.trace is false,
// the per-layer set (and the span ledger) when it is true.
#pragma once

#include "common.hpp"

namespace perfbench {

/// All 14 SPLASH replicas at scale large on 4 threads, native twin and
/// default-configured profiler alternating within each pass.
[[nodiscard]] Outcome run_live_suite(const RunConfig& cfg);

/// Five recorded simsmall traces replayed on one thread through a guarded,
/// batched, recorder- and phase-enabled 10M-slot profiler.
[[nodiscard]] Outcome run_replay_observed(const RunConfig& cfg);

/// Three closed-loop shippers against an in-process durable daemon, then a
/// restart that times recovery.
[[nodiscard]] Outcome run_serve_fleet(const RunConfig& cfg);

/// Worker threads of every workload (the host has 4 cores).
inline constexpr int kThreads = 4;

}  // namespace perfbench
