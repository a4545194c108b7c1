// Epoch flight recorder — time-resolved communication capture.
//
// The paper's central artifact is a *static* per-loop communication matrix,
// but its own phase analysis (Figures 6/7, Section V.A.4) shows that
// communication is strongly time-varying. The flight recorder makes that
// visible on every run: the profiler periodically seals an *epoch* — a
// sparse delta of the communication matrix accumulated since the previous
// boundary, tagged with the loops that produced it — into a bounded
// in-memory ring. Like the telemetry tracer's rings, the ring never grows:
// when full, the oldest epoch is overwritten and the loss is counted, so an
// always-on recorder is safe on an unbounded run.
//
// It is the profiler's only time-slicer. Epoch boundaries are configurable
// via ProfilerOptions: every N access events, every K drained micro-batches,
// every T milliseconds, every B communicated bytes (the phase windows of
// Section V.A.4, `phase_window_bytes`) — plus forced boundaries at
// GuardedSink checkpoints and finalize(), which also persist the ring to a
// sidecar file so epochs survive crashes alongside the checkpoint itself.
// Phase detection (core/phase.hpp) and the DVFS advisor segment the
// surviving epochs, whichever trigger cut them.
//
// Cost model mirrors the tracer:
//   * Disabled (all triggers zero, the default): enabled() is one branch on
//     a plain bool; nothing is allocated, ever.
//   * Enabled: count_access() increments a thread-local counter and touches
//     the shared atomic only once per `stride_` events (stride adapts to the
//     epoch granularity, so fine-grained triggers stay exact while coarse
//     ones avoid cache-line ping-pong between counting threads); add()
//     (dependencies only — orders of magnitude rarer than accesses) takes
//     one mutex, under which the bytes trigger is checked too.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "instrument/loop_registry.hpp"
#include "support/memtrack.hpp"
#include "telemetry/perf_counters.hpp"

namespace commscope::core {

/// Why an epoch was sealed (serialized into the epoch file as provenance).
enum class EpochSeal : std::uint8_t {
  kAccesses,    ///< the every-N-accesses trigger fired
  kBatches,     ///< the every-K-drained-batches trigger fired
  kTimer,       ///< the every-T-milliseconds trigger fired
  kCheckpoint,  ///< GuardedSink checkpoint boundary
  kFinalize,    ///< end of run
  kReplay,      ///< fixed-count re-slice of an existing trace
  kBytes,       ///< the every-B-communicated-bytes (phase window) trigger fired
};

[[nodiscard]] const char* to_string(EpochSeal reason) noexcept;
/// Inverse of to_string; throws std::runtime_error on an unknown name.
[[nodiscard]] EpochSeal epoch_seal_from_string(const std::string& s);

/// One nonzero cell of an epoch's sparse delta matrix.
struct EpochCell {
  std::uint16_t producer = 0;
  std::uint16_t consumer = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] bool operator==(const EpochCell&) const noexcept = default;
};

/// Bytes an epoch attributed to one annotated loop (consumer side).
struct EpochLoopShare {
  instrument::LoopId loop = instrument::kNoLoop;  ///< kNoLoop = root region
  std::uint64_t bytes = 0;

  [[nodiscard]] bool operator==(const EpochLoopShare&) const noexcept = default;
};

/// One sealed epoch: the communication delta between two boundaries.
struct EpochSample {
  std::uint64_t index = 0;         ///< global epoch number (monotonic)
  std::uint64_t first_access = 0;  ///< access count at epoch start
  std::uint64_t last_access = 0;   ///< access count at seal
  std::uint64_t dependencies = 0;  ///< RAW edges recorded in the window
  std::uint64_t bytes = 0;         ///< total delta volume
  EpochSeal reason = EpochSeal::kAccesses;
  /// Hardware counter delta for this window (all-zero with present == 0
  /// when no perf engine was attached — the epoch file then serializes in
  /// the counterless v1 format). Carried through serve merge and WAL replay
  /// alongside the comm-matrix delta it grounds.
  telemetry::PerfDelta perf;
  std::vector<EpochCell> cells;        ///< sorted (producer, consumer)
  std::vector<EpochLoopShare> loops;   ///< sorted by loop id

  /// Rebuilds the dense delta matrix (dimension `threads`).
  [[nodiscard]] Matrix dense(int threads) const;

  [[nodiscard]] bool operator==(const EpochSample&) const noexcept = default;
};

/// A run's surviving epoch history plus the bookkeeping that makes partial
/// histories honest: `sealed` counts every epoch ever sealed, `dropped` the
/// ones overwritten out of the ring — sealed == dropped + epochs.size().
struct EpochTimeline {
  int threads = 0;
  std::uint64_t sealed = 0;
  std::uint64_t dropped = 0;
  std::vector<EpochSample> epochs;  ///< oldest to newest surviving
  /// Loop-id -> label pairs for every loop referenced by any epoch, so a
  /// timeline written in one process renders with names in another.
  std::vector<std::pair<std::uint32_t, std::string>> loop_labels;

  /// Sum of the surviving epochs' deltas (a lower bound on the run's matrix
  /// when dropped > 0, exact otherwise).
  [[nodiscard]] Matrix total() const;
  /// Label for `loop`, falling back to "loop#<id>" / "<root>".
  [[nodiscard]] std::string label_of(std::uint32_t loop) const;
  /// One dense delta matrix per surviving epoch, oldest first — the window
  /// sequence detect_phases() segments.
  [[nodiscard]] std::vector<Matrix> windows() const;
};

/// Recorder configuration (lifted from ProfilerOptions by the profiler).
struct FlightRecorderOptions {
  int threads = 0;
  std::uint64_t every_accesses = 0;  ///< seal every N access events; 0 = off
  std::uint32_t every_batches = 0;   ///< seal every K drained batches; 0 = off
  std::uint32_t every_millis = 0;    ///< seal every T milliseconds; 0 = off
  std::uint64_t every_bytes = 0;     ///< seal every B comm. bytes; 0 = off
  std::uint32_t capacity = 0;        ///< ring size; 0 = default when enabled
  /// Re-slice mode (`commscope replay --epochs=N`): access-trigger seals are
  /// stamped kReplay so a re-sliced timeline is distinguishable from a live
  /// recording.
  bool replay = false;
  /// Optional hardware counter engine (owned by the profiler). When set,
  /// every seal stamps the epoch with the counter delta accumulated since
  /// the previous boundary, so hardware counts partition exactly like the
  /// comm-matrix deltas do.
  telemetry::PerfCounters* perf = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return every_accesses != 0 || every_batches != 0 || every_millis != 0 ||
           every_bytes != 0;
  }
};

/// Default ring capacity when a trigger is set but no capacity was given.
inline constexpr std::uint32_t kDefaultEpochRing = 512;
/// Hard ring ceiling (the recorder is bounded by contract).
inline constexpr std::uint32_t kMaxEpochRing = 1u << 20;

class FlightRecorder {
 public:
  /// A disabled recorder (no trigger set) allocates nothing and its hot-path
  /// calls reduce to one branch. `tracker` (optional) is charged for the
  /// dense accumulation window so Figure 5 numbers stay honest.
  FlightRecorder(FlightRecorderOptions options,
                 support::MemoryTracker* tracker = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Counts one raw access event and seals an epoch when the access or
  /// timer trigger is due. Thread-safe. Counts coalesce in a thread-local
  /// accumulator and publish to the shared atomic every `stride_` events —
  /// with many threads a per-event fetch_add on one cache line dominates
  /// the recorder's cost, and epoch boundaries only need to be exact to
  /// within stride_ * threads events (stride_ is 1 when every_accesses is
  /// small, so fine-grained triggers remain exact). Up to stride_ - 1
  /// events per thread may still be pending at a flush boundary; they fold
  /// into the next window's access count (matrix deltas are unaffected —
  /// dependencies flow through add(), not this counter).
  void count_access() noexcept {
    if (!enabled_) return;
    thread_local TlPending tl;
    if (tl.gen != gen_) {
      tl.gen = gen_;
      tl.pending = 0;
    }
    if (++tl.pending < stride_) return;
    const std::uint32_t batch = tl.pending;
    tl.pending = 0;
    publish_accesses(batch);
  }

  /// Counts one drained micro-batch; seals when the batch trigger is due.
  void count_batch() noexcept {
    if (!enabled_ || options_.every_batches == 0) return;
    const std::uint64_t b = batches_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (b - window_first_batch_.load(std::memory_order_relaxed) >=
        options_.every_batches) {
      seal(EpochSeal::kBatches);
    }
  }

  /// Feeds one detected dependency attributed to `loop` on the consumer
  /// side and seals when the bytes trigger is due — on the dependency that
  /// fills the window, which therefore belongs to the sealed epoch.
  /// Thread-safe (one mutex).
  void add(int producer, int consumer, std::uint64_t bytes,
           instrument::LoopId loop) noexcept;

  /// Seals the current partial window (if it saw any activity) with an
  /// explicit reason — the checkpoint/finalize boundary hook.
  void flush(EpochSeal reason) noexcept;

  /// Epochs sealed / overwritten so far.
  [[nodiscard]] std::uint64_t epochs_sealed() const noexcept;
  [[nodiscard]] std::uint64_t epochs_dropped() const noexcept;

  /// Copy of the surviving history, oldest first, with loop labels resolved
  /// from the process's LoopRegistry.
  [[nodiscard]] EpochTimeline timeline() const;

 private:
  /// Timer-trigger poll granularity: the steady_clock read happens at most
  /// once per (mask+1) accesses, keeping the hot path clock-free.
  static constexpr std::uint64_t kTimerCheckMask = 1023;

  /// Per-thread pending-count slot. `gen` ties the slot to one recorder
  /// instance by generation number, not address — a recorder constructed at
  /// a freed recorder's address must not inherit its residue.
  struct TlPending {
    std::uint64_t gen = 0;
    std::uint32_t pending = 0;
  };

  /// Adds a coalesced batch to the shared counter and runs the seal/timer
  /// trigger checks (the cold once-per-stride_ half of count_access()).
  void publish_accesses(std::uint32_t batch) noexcept;

  void seal(EpochSeal reason) noexcept;
  void timer_tick() noexcept;
  /// Seals under mu_; trigger reasons re-check their condition inside the
  /// lock so concurrent crossers produce one epoch, not one each.
  void seal_locked(EpochSeal reason);

  FlightRecorderOptions options_;
  bool enabled_ = false;
  support::MemoryTracker* tracker_ = nullptr;
  std::uint64_t tracked_bytes_ = 0;
  std::uint64_t gen_ = 0;     ///< this instance's TlPending generation
  std::uint32_t stride_ = 1;  ///< thread-local coalescing width

  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> batches_{0};
  /// Access / batch counts at the current window's start (the seal triggers
  /// compare against these without taking the mutex).
  std::atomic<std::uint64_t> window_first_{0};
  std::atomic<std::uint64_t> window_first_batch_{0};

  mutable std::mutex mu_;
  std::vector<std::uint64_t> window_cells_;      ///< dense n*n delta
  std::vector<EpochLoopShare> window_loops_;     ///< unsorted, linear scan
  std::uint64_t window_bytes_ = 0;
  std::uint64_t window_deps_ = 0;
  std::uint64_t sealed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t t0_ns_ = 0;            ///< construction timebase (timer mode)
  std::uint64_t last_seal_ns_ = 0;
  std::vector<EpochSample> ring_;      ///< capacity_ slots, ring order
  std::size_t ring_head_ = 0;          ///< next slot to write
  std::size_t ring_kept_ = 0;
};

}  // namespace commscope::core
