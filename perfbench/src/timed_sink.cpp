#include "timed_sink.hpp"

#include <algorithm>

#include "support/hash.hpp"
#include "support/memtrack.hpp"

namespace perfbench {
namespace {
// Keeps the hashed values observable so the timed loop cannot be elided.
volatile std::uint64_t g_hash_sink = 0;
}  // namespace

double clock_pair_ns() {
  constexpr int kPairs = 200'000;
  std::uint64_t acc = 0;
  const std::uint64_t t0 = spans::now_ns();
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = spans::now_ns();
    acc += spans::now_ns() - a;
  }
  // `acc` covers the inner pairs; the whole loop bounds it from above.
  const std::uint64_t whole = spans::now_ns() - t0;
  return static_cast<double>(std::min(acc, whole)) / kPairs;
}

LaneProbe probe_lanes(const std::vector<Lanes>& lanes, std::size_t slots,
                      int threads, double fp_rate, std::uint32_t block) {
  namespace cc = commscope::core;
  LaneProbe out;
  std::size_t longest = 0;
  for (const Lanes& l : lanes) {
    out.events += l.addr.size();
    longest = std::max(longest, l.addr.size());
  }
  if (out.events == 0) return out;

  // Hash: whole lanes, repeated until at least 20 ms were measured.
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(out.events);
    for (const Lanes& l : lanes) {
      for (const std::uintptr_t a : l.addr) keys.push_back(a);
    }
    std::vector<std::uint64_t> hashed(keys.size());
    std::uint64_t hashed_total = 0;
    std::uint64_t ns = 0;
    std::uint64_t sink = 0;
    while (ns < 20'000'000ull) {
      const std::uint64_t t0 = spans::now_ns();
      commscope::support::murmur_mix64_batch(keys.data(), hashed.data(),
                                             keys.size());
      ns += spans::now_ns() - t0;
      hashed_total += keys.size();
      sink ^= hashed[hashed_total % hashed.size()];
    }
    g_hash_sink = sink;
    out.hash_ns = static_cast<double>(ns) / static_cast<double>(hashed_total);
  }

  // Bare detector: one pass, blocks of `block` per thread in turn.
  commscope::support::MemoryTracker tracker;
  cc::AsymmetricDetector det(slots, threads, fp_rate, &tracker);
  std::vector<std::uint16_t> dep_evt(block);
  std::vector<std::int8_t> dep_producer(block);
  std::uint64_t ns = 0;
  for (std::size_t base = 0; base < longest; base += block) {
    for (int tid = 0; tid < static_cast<int>(lanes.size()); ++tid) {
      const Lanes& l = lanes[static_cast<std::size_t>(tid)];
      if (base >= l.addr.size()) continue;
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(block, l.addr.size() - base));
      const std::uint64_t t0 = spans::now_ns();
      const cc::AsymmetricDetector::DrainResult r =
          det.drain_batch(l.addr.data() + base, l.meta.data() + base, n, tid,
                          dep_evt.data(), dep_producer.data());
      ns += spans::now_ns() - t0;
      out.deps += r.deps;
    }
  }
  out.drain_ns = static_cast<double>(ns) / static_cast<double>(out.events);
  out.sig_bytes = tracker.current();
  return out;
}

}  // namespace perfbench
