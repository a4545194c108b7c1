// Timing wrapper around a profiler sink, used only in the traced run.
//
// Forwards every event to the wrapped sink and measures from outside:
//   * one on_access in `sample_every` is timed, the rest are only counted, so
//     the per-access estimate costs little. The stride should be prime: a
//     stride that divides the profiler's batch size would time only the
//     accesses that fill the batch and trigger its drain;
//   * every loop enter/exit, on_drain and finalize is timed;
//   * on_drain records how many events were pending (Profiler::pending_events)
//     so drain time is reported per drained event;
//   * the first `lane_cap` accesses of each thread are kept as an address and
//     meta lane (AsymmetricDetector's packed kind|size format) for the bare
//     hash and detector probes.
// Per-thread state is cache-line padded; each thread touches only its own.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profiler.hpp"
#include "core/raw_detector.hpp"
#include "instrument/sink.hpp"
#include "spans.hpp"

namespace perfbench {

/// Mean cost in ns of the two clock reads that bracket one timed call.
[[nodiscard]] double clock_pair_ns();

struct Lanes {
  std::vector<std::uintptr_t> addr;
  std::vector<std::uint32_t> meta;
};

class TimedSink final : public commscope::instrument::AccessSink {
 public:
  struct alignas(64) PerThread {
    std::uint64_t accesses = 0;
    std::uint32_t since_sample = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampled_ns = 0;
    std::uint64_t loops = 0;
    std::uint64_t loop_ns = 0;
    std::uint64_t drains = 0;
    std::uint64_t drain_events = 0;
    std::uint64_t drain_ns = 0;
    Lanes lanes;
  };

  TimedSink(commscope::instrument::AccessSink& inner,
            const commscope::core::Profiler& profiler, int threads,
            std::uint32_t sample_every, std::size_t lane_cap)
      : inner_(&inner),
        profiler_(&profiler),
        threads_(threads),
        stride_(sample_every),
        lane_cap_(lane_cap),
        per_(std::make_unique<PerThread[]>(static_cast<std::size_t>(threads))) {
  }
  TimedSink(const TimedSink&) = delete;
  TimedSink& operator=(const TimedSink&) = delete;

  void on_thread_begin(int tid) override { inner_->on_thread_begin(tid); }

  void on_loop_enter(int tid, commscope::instrument::LoopId id) override {
    const std::uint64_t t0 = spans::now_ns();
    inner_->on_loop_enter(tid, id);
    charge_loop(tid, t0);
  }

  void on_loop_exit(int tid) override {
    const std::uint64_t t0 = spans::now_ns();
    inner_->on_loop_exit(tid);
    charge_loop(tid, t0);
  }

  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 commscope::instrument::AccessKind kind) override {
    if (static_cast<unsigned>(tid) >= static_cast<unsigned>(threads_)) {
      inner_->on_access(tid, addr, size, kind);
      return;
    }
    PerThread& p = per_[static_cast<std::size_t>(tid)];
    if (p.lanes.addr.size() < lane_cap_) {
      p.lanes.addr.push_back(addr);
      p.lanes.meta.push_back(
          size | (kind == commscope::instrument::AccessKind::kWrite
                      ? commscope::core::AsymmetricDetector::kMetaWriteBit
                      : 0u));
    }
    ++p.accesses;
    if (++p.since_sample < stride_) {
      inner_->on_access(tid, addr, size, kind);
      return;
    }
    p.since_sample = 0;
    const std::uint64_t t0 = spans::now_ns();
    inner_->on_access(tid, addr, size, kind);
    p.sampled_ns += spans::now_ns() - t0;
    ++p.sampled;
  }

  void on_drain(int tid) override {
    const std::uint32_t pending = profiler_->pending_events(tid);
    const std::uint64_t t0 = spans::now_ns();
    inner_->on_drain(tid);
    if (static_cast<unsigned>(tid) >= static_cast<unsigned>(threads_)) return;
    PerThread& p = per_[static_cast<std::size_t>(tid)];
    p.drain_ns += spans::now_ns() - t0;
    ++p.drains;
    p.drain_events += pending;
  }

  void finalize() override {
    const std::uint64_t t0 = spans::now_ns();
    {
      spans::Span span("core.profiler.finalize");
      inner_->finalize();
    }
    finalize_ns_ = spans::now_ns() - t0;
  }

  [[nodiscard]] int threads() const noexcept { return threads_; }
  [[nodiscard]] const PerThread& thread(int tid) const noexcept {
    return per_[static_cast<std::size_t>(tid)];
  }
  [[nodiscard]] std::uint64_t finalize_ns() const noexcept {
    return finalize_ns_;
  }

  /// Estimated ns spent inside on_access on `tid`: the sampled mean (minus
  /// the clock-pair cost) times the access count.
  [[nodiscard]] double access_ns_estimate(int tid, double clock_ns) const {
    const PerThread& p = thread(tid);
    if (p.sampled == 0) return 0.0;
    return access_mean_ns(p, clock_ns) * static_cast<double>(p.accesses);
  }

  /// `ns` spent in `calls` timed calls, less the clock-pair cost of each.
  [[nodiscard]] static double corrected(std::uint64_t ns, std::uint64_t calls,
                                        double clock_ns) {
    const double c = static_cast<double>(ns) -
                     clock_ns * static_cast<double>(calls);
    return c > 0.0 ? c : 0.0;
  }

  [[nodiscard]] static double access_mean_ns(const PerThread& p,
                                             double clock_ns) {
    if (p.sampled == 0) return 0.0;
    const double mean = static_cast<double>(p.sampled_ns) /
                        static_cast<double>(p.sampled);
    return mean > clock_ns ? mean - clock_ns : 0.0;
  }

 private:
  void charge_loop(int tid, std::uint64_t t0) {
    if (static_cast<unsigned>(tid) >= static_cast<unsigned>(threads_)) return;
    PerThread& p = per_[static_cast<std::size_t>(tid)];
    p.loop_ns += spans::now_ns() - t0;
    ++p.loops;
  }

  commscope::instrument::AccessSink* inner_;
  const commscope::core::Profiler* profiler_;
  int threads_;
  std::uint32_t stride_;
  std::size_t lane_cap_;
  std::unique_ptr<PerThread[]> per_;
  std::uint64_t finalize_ns_ = 0;
};

/// Result of running captured lanes through the bare library calls.
struct LaneProbe {
  std::uint64_t events = 0;
  double hash_ns = 0.0;         ///< murmur_mix64_batch per address
  double drain_ns = 0.0;        ///< AsymmetricDetector::drain_batch per event
  std::uint64_t deps = 0;       ///< dependencies the bare detector found
  std::uint64_t sig_bytes = 0;  ///< bytes the bare detector's memories hold
};

/// Hashes every lane with murmur_mix64_batch, then drains the lanes in
/// blocks of `block` through a fresh AsymmetricDetector (round-robin over
/// threads, as a batched profiler would), timing both from outside.
[[nodiscard]] LaneProbe probe_lanes(const std::vector<Lanes>& lanes,
                                    std::size_t slots, int threads,
                                    double fp_rate, std::uint32_t block);

}  // namespace perfbench
