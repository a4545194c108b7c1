#include "core/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::core {

const char* to_string(EpochSeal reason) noexcept {
  switch (reason) {
    case EpochSeal::kAccesses: return "accesses";
    case EpochSeal::kBatches: return "batches";
    case EpochSeal::kTimer: return "timer";
    case EpochSeal::kCheckpoint: return "checkpoint";
    case EpochSeal::kFinalize: return "finalize";
    case EpochSeal::kReplay: return "replay";
    case EpochSeal::kBytes: return "bytes";
  }
  return "?";
}

EpochSeal epoch_seal_from_string(const std::string& s) {
  for (const EpochSeal r :
       {EpochSeal::kAccesses, EpochSeal::kBatches, EpochSeal::kTimer,
        EpochSeal::kCheckpoint, EpochSeal::kFinalize, EpochSeal::kReplay,
        EpochSeal::kBytes}) {
    if (s == to_string(r)) return r;
  }
  throw std::runtime_error("unknown epoch seal reason '" + s + "'");
}

Matrix EpochSample::dense(int threads) const {
  Matrix m(threads);
  for (const EpochCell& c : cells) {
    if (c.producer < threads && c.consumer < threads) {
      m.at(c.producer, c.consumer) += c.bytes;
    }
  }
  return m;
}

Matrix EpochTimeline::total() const {
  Matrix m(threads);
  if (threads <= 0) return m;
  for (const EpochSample& e : epochs) {
    for (const EpochCell& c : e.cells) {
      if (c.producer < threads && c.consumer < threads) {
        m.at(c.producer, c.consumer) += c.bytes;
      }
    }
  }
  return m;
}

std::vector<Matrix> EpochTimeline::windows() const {
  std::vector<Matrix> out;
  out.reserve(epochs.size());
  for (const EpochSample& e : epochs) out.push_back(e.dense(threads));
  return out;
}

std::string EpochTimeline::label_of(std::uint32_t loop) const {
  if (loop == instrument::kNoLoop) return "<root>";
  for (const auto& [id, label] : loop_labels) {
    if (id == loop) return label;
  }
  return "loop#" + std::to_string(loop);
}

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic source for TlPending generations (0 stays "no recorder").
std::atomic<std::uint64_t> g_recorder_gen{0};

/// Widest thread-local coalescing stride. At width w the shared counter is
/// touched once per w events and epoch boundaries are exact to within
/// w * threads events — negligible against any practical granularity.
constexpr std::uint32_t kMaxCountStride = 64;

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options,
                               support::MemoryTracker* tracker)
    : options_(options), enabled_(options.enabled()), tracker_(tracker) {
  if (!enabled_) return;  // disabled: allocate nothing, ever
  gen_ = g_recorder_gen.fetch_add(1, std::memory_order_relaxed) + 1;
  // Coalescing stride: never wider than 1/16th of the access granularity, so
  // every_accesses <= 16 counts exactly (the trigger-precision tests) while
  // coarse real-run settings get the full contention reduction. Batch-,
  // timer- or bytes-only recorders have no access trigger to blur; use the
  // full width.
  stride_ = kMaxCountStride;
  if (options_.every_accesses != 0) {
    stride_ = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        options_.every_accesses / 16, 1, kMaxCountStride));
  }
  if (options_.capacity == 0) options_.capacity = kDefaultEpochRing;
  options_.capacity = std::min(options_.capacity, kMaxEpochRing);
  window_cells_.assign(static_cast<std::size_t>(options_.threads) *
                           static_cast<std::size_t>(options_.threads),
                       0);
  ring_.reserve(options_.capacity);
  t0_ns_ = steady_now_ns();
  last_seal_ns_ = t0_ns_;
  // Charge the fixed-size storage (dense window + ring slots). Per-epoch
  // sparse cell payloads are bounded by capacity * threads^2 but typically
  // tiny; they ride untracked like the tracer's static rings.
  tracked_bytes_ = window_cells_.size() * sizeof(std::uint64_t) +
                   static_cast<std::uint64_t>(options_.capacity) *
                       sizeof(EpochSample);
  if (tracker_ != nullptr) tracker_->add(tracked_bytes_);
}

FlightRecorder::~FlightRecorder() {
  if (tracker_ != nullptr && tracked_bytes_ != 0) tracker_->sub(tracked_bytes_);
}

void FlightRecorder::publish_accesses(std::uint32_t batch) noexcept {
  const std::uint64_t n =
      accesses_.fetch_add(batch, std::memory_order_relaxed) + batch;
  if (options_.every_accesses != 0 &&
      n - window_first_.load(std::memory_order_relaxed) >=
          options_.every_accesses) {
    seal(EpochSeal::kAccesses);
  } else if (options_.every_millis != 0 &&
             (n / (kTimerCheckMask + 1)) !=
                 ((n - batch) / (kTimerCheckMask + 1))) {
    // The batched increment can step over the exact poll points; fire when
    // the batch crosses a poll-window boundary instead of testing equality.
    timer_tick();
  }
}

void FlightRecorder::add(int producer, int consumer, std::uint64_t bytes,
                         instrument::LoopId loop) noexcept {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx =
      static_cast<std::size_t>(producer) *
          static_cast<std::size_t>(options_.threads) +
      static_cast<std::size_t>(consumer);
  if (idx >= window_cells_.size()) return;
  window_cells_[idx] += bytes;
  window_bytes_ += bytes;
  ++window_deps_;
  auto share = std::find_if(
      window_loops_.begin(), window_loops_.end(),
      [loop](const EpochLoopShare& s) { return s.loop == loop; });
  if (share != window_loops_.end()) {
    share->bytes += bytes;
  } else {
    window_loops_.push_back(EpochLoopShare{loop, bytes});
  }
  if (options_.every_bytes != 0 && window_bytes_ >= options_.every_bytes) {
    seal_locked(EpochSeal::kBytes);
  }
}

void FlightRecorder::seal(EpochSeal reason) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check the trigger inside the lock: every thread that observed the
  // crossing races here, and only the first should seal.
  switch (reason) {
    case EpochSeal::kAccesses:
      if (accesses_.load(std::memory_order_relaxed) -
              window_first_.load(std::memory_order_relaxed) <
          options_.every_accesses) {
        return;
      }
      break;
    case EpochSeal::kBatches:
      if (batches_.load(std::memory_order_relaxed) -
              window_first_batch_.load(std::memory_order_relaxed) <
          options_.every_batches) {
        return;
      }
      break;
    case EpochSeal::kTimer:
      if (steady_now_ns() - last_seal_ns_ <
          static_cast<std::uint64_t>(options_.every_millis) * 1000000ULL) {
        return;
      }
      break;
    default:
      break;
  }
  seal_locked(reason);
}

void FlightRecorder::timer_tick() noexcept {
  if (steady_now_ns() - last_seal_ns_ >=
      static_cast<std::uint64_t>(options_.every_millis) * 1000000ULL) {
    seal(EpochSeal::kTimer);
  }
}

void FlightRecorder::flush(EpochSeal reason) noexcept {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  // An explicit boundary with nothing behind it (no access advanced, no
  // dependency recorded) would create an empty epoch per checkpoint; skip.
  if (window_deps_ == 0 &&
      accesses_.load(std::memory_order_relaxed) ==
          window_first_.load(std::memory_order_relaxed)) {
    return;
  }
  seal_locked(reason);
}

void FlightRecorder::seal_locked(EpochSeal reason) {
  if (reason == EpochSeal::kAccesses && options_.replay) {
    reason = EpochSeal::kReplay;
  }
  EpochSample e;
  e.index = sealed_;
  e.first_access = window_first_.load(std::memory_order_relaxed);
  e.last_access = accesses_.load(std::memory_order_relaxed);
  e.dependencies = window_deps_;
  e.bytes = window_bytes_;
  e.reason = reason;
  if (options_.perf != nullptr) {
    // One boundary read partitions the hardware counts exactly like the
    // matrix delta: everything since the previous seal lands in this epoch.
    e.perf = options_.perf->window_delta();
  }
  const int n = options_.threads;
  for (int p = 0; p < n; ++p) {
    for (int c = 0; c < n; ++c) {
      const std::uint64_t v =
          window_cells_[static_cast<std::size_t>(p) *
                            static_cast<std::size_t>(n) +
                        static_cast<std::size_t>(c)];
      if (v != 0) {
        e.cells.push_back(EpochCell{static_cast<std::uint16_t>(p),
                                    static_cast<std::uint16_t>(c), v});
      }
    }
  }
  std::sort(window_loops_.begin(), window_loops_.end(),
            [](const EpochLoopShare& a, const EpochLoopShare& b) {
              return a.loop < b.loop;
            });
  e.loops = std::move(window_loops_);

  if (ring_kept_ < options_.capacity) {
    ring_.push_back(std::move(e));
    ++ring_kept_;
  } else {
    // Overwrite-and-count, the tracer's contract: the ring is bounded, the
    // loss is visible, the newest history always survives.
    ring_[ring_head_] = std::move(e);
    ring_head_ = (ring_head_ + 1) % options_.capacity;
    ++dropped_;
    telemetry::counter("recorder.overwrites").add(1);
  }
  ++sealed_;
  telemetry::counter("recorder.epochs").add(1);
  telemetry::Tracer::instant("epoch_seal", telemetry::SpanCat::kEpoch);

  window_loops_ = {};
  std::fill(window_cells_.begin(), window_cells_.end(), 0);
  window_bytes_ = 0;
  window_deps_ = 0;
  window_first_.store(accesses_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  window_first_batch_.store(batches_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  last_seal_ns_ = steady_now_ns();
}

std::uint64_t FlightRecorder::epochs_sealed() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

std::uint64_t FlightRecorder::epochs_dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

EpochTimeline FlightRecorder::timeline() const {
  EpochTimeline t;
  t.threads = options_.threads;
  if (!enabled_) return t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t.sealed = sealed_;
    t.dropped = dropped_;
    t.epochs.reserve(ring_kept_);
    const std::size_t oldest = ring_kept_ < options_.capacity ? 0 : ring_head_;
    for (std::size_t i = 0; i < ring_kept_; ++i) {
      t.epochs.push_back(ring_[(oldest + i) % ring_kept_]);
    }
  }
  // Resolve loop labels outside the lock (registry takes its own mutex).
  std::vector<std::uint32_t> ids;
  for (const EpochSample& e : t.epochs) {
    for (const EpochLoopShare& share : e.loops) {
      if (share.loop != instrument::kNoLoop &&
          std::find(ids.begin(), ids.end(), share.loop) == ids.end()) {
        ids.push_back(share.loop);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    t.loop_labels.emplace_back(id,
                               instrument::LoopRegistry::instance().label(id));
  }
  return t;
}

}  // namespace commscope::core
