// Shared plumbing for the end-to-end benchmark: clocks, order statistics,
// the per-run outcome (metrics + correctness tally) and small file helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) noexcept {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times `fn` and returns its wall time in seconds.
template <typename Fn>
[[nodiscard]] double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// a / b, or 0 when b is 0 (a layer that did no work).
[[nodiscard]] inline double ratio(double a, double b) noexcept {
  return b > 0.0 ? a / b : 0.0;
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Order-sensitive 64-bit digest of a byte string (FNV-1a), used to compare
/// matrices, region trees and epoch files across repetitions without keeping
/// every copy.
[[nodiscard]] inline std::uint64_t digest(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run produced. Every correctness check is one attempt;
/// a check that does not hold is one failure and keeps its message.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;      ///< the JSON `metrics` object, in order
  std::vector<Metric> supplementary;  ///< printed by name, not in the JSON

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
  void put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    supplementary.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One benchmark invocation's arguments.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
};

/// Peak resident set of this process in MB (getrusage high-water mark).
[[nodiscard]] double peak_rss_mb();

/// User plus system CPU time of this process so far, in seconds
/// (getrusage), summed over all its threads.
[[nodiscard]] double process_cpu_s();

/// Whole file as a string; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::filesystem::path& p);

/// Seeded Fisher-Yates shuffle (SplitMix64), so the same seed gives the
/// same order on every platform.
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  commscope::support::SplitMix64 rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next() % i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace perfbench
