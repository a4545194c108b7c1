// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "instrument/loop_registry.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "telemetry/perf_counters.hpp"
#include "telemetry/trace.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace commscope::bench {

/// Opt-in profiler-timeline capture for benches: when $COMMSCOPE_TRACE_OUT
/// names a file, the telemetry tracer runs for the bench's lifetime and the
/// Chrome trace JSON is written at scope exit. Without the variable this is
/// a complete no-op, so figure numbers stay untouched by default.
class TraceOutFromEnv {
 public:
  TraceOutFromEnv() {
    const char* path = std::getenv("COMMSCOPE_TRACE_OUT");
    if (path != nullptr && *path != '\0') {
      path_ = path;
      telemetry::Tracer::enable();
    }
  }
  ~TraceOutFromEnv() {
    if (path_.empty()) return;
    telemetry::Tracer::disable();
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "cannot write " << path_ << "\n";
      return;
    }
    telemetry::Tracer::write_chrome_trace(out, [](std::uint32_t id) {
      return instrument::LoopRegistry::instance().label(id);
    });
    std::cerr << telemetry::Tracer::captured() << " trace events written to "
              << path_ << "\n";
  }
  TraceOutFromEnv(const TraceOutFromEnv&) = delete;
  TraceOutFromEnv& operator=(const TraceOutFromEnv&) = delete;

 private:
  std::string path_;
};

/// Wall-clock seconds of `fn`.
inline double time_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Fresh profiler with the bench-default configuration. When
/// $COMMSCOPE_EPOCH_EVERY is set (access count per epoch), the flight
/// recorder runs during the bench — the knob behind the recorder-overhead
/// measurement in EXPERIMENTS.md; unset, the recorder stays disabled and the
/// bench path is byte-for-byte the historical one.
inline std::unique_ptr<core::Profiler> make_profiler(
    int threads, core::Backend backend = core::Backend::kAsymmetricSignature,
    std::size_t slots = 1 << 20, double fp_rate = 0.001) {
  core::ProfilerOptions o;
  o.max_threads = threads;
  o.backend = backend;
  o.signature_slots = slots;
  o.fp_rate = fp_rate;
  if (const char* env = std::getenv("COMMSCOPE_EPOCH_EVERY");
      env != nullptr && *env != '\0') {
    o.epoch_accesses = static_cast<std::uint64_t>(std::atoll(env));
  }
  // COMMSCOPE_PERF=1 arms the hardware-counter engine (README "Hardware
  // counters"); on PMU-less hosts the bench runs identically, degraded.
  if (const char* env = std::getenv("COMMSCOPE_PERF");
      env != nullptr && *env == '1') {
    o.perf = true;
  }
  return std::make_unique<core::Profiler>(o);
}

/// One-paragraph hardware grounding for the figure benches: whole-run
/// LLC-miss/HITM totals next to the communication volume they are meant to
/// explain. Silent when the engine was not requested; one provenance line
/// when it was requested but the host refused perf_event_open.
inline void print_perf_grounding(const core::Profiler& profiler,
                                 std::ostream& os) {
  const telemetry::PerfCounters* pc = profiler.perf_counters();
  if (pc == nullptr) return;
  if (!pc->available()) {
    os << "\nhardware grounding: perf_event_open unavailable on this host "
          "(matrices unaffected)\n";
    return;
  }
  const telemetry::PerfDelta d = profiler.regions().root().aggregate_perf();
  const std::uint64_t bytes = profiler.regions().root().aggregate().total();
  os << "\nhardware grounding (" << telemetry::to_string(pc->hitm_source())
     << "): llc-misses=" << d.llc_misses << " hitm=" << d.hitm;
  if (bytes > 0) {
    os << "  (" << static_cast<double>(d.llc_misses) * 64.0 /
                       static_cast<double>(bytes)
       << " miss-bytes per comm-byte)";
  }
  if (d.multiplexed) os << "  [multiplex-scaled]";
  os << "\n";
}

/// Repetitions per measured configuration for the benches that report a
/// best-of (ingest_throughput, serve_durability): $COMMSCOPE_BENCH_REPS when
/// it is a whole number from 1 to 1000, else 5.
inline int bench_reps() {
  const std::int64_t v = support::env_int("COMMSCOPE_BENCH_REPS", 5);
  return v >= 1 && v <= 1000 ? static_cast<int>(v) : 5;
}

/// Which way a bench point improves.
enum class Better { kHigher, kLower };

/// One bench run in the schema `commscope diff --bench` reads (README,
/// "commscope diff"): the bench name, the provenance two runs must share to
/// be compared, and named points. Every bench with a committed
/// bench/BENCH_*.json baseline writes through this one writer. Names, units
/// and provenance strings are bench-chosen identifiers, written unescaped.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void provenance(const std::string& key, const std::string& value) {
    provenance_.push_back("\"" + key + "\": \"" + value + "\"");
  }
  void provenance(const std::string& key, std::uint64_t value) {
    provenance_.push_back("\"" + key + "\": " + std::to_string(value));
  }

  /// A named point. A fresh run whose value is past `bound` (below it for
  /// Better::kHigher, above it for kLower) fails the gate outright.
  void point(std::string name, std::string unit, double value, Better better,
             std::optional<double> bound = std::nullopt) {
    points_.push_back(
        {std::move(name), std::move(unit), value, better, bound});
  }

  /// Writes the document to $COMMSCOPE_BENCH_OUT, or `default_path` when
  /// that is unset, and exits 1 when the file cannot be written completely:
  /// a perf gate must never diff a missing or partial file.
  void write(const std::string& default_path) const {
    std::ostringstream doc;
    doc << "{\n  \"bench\": \"" << bench_ << "\",\n  \"provenance\": {";
    for (std::size_t i = 0; i < provenance_.size(); ++i) {
      doc << (i == 0 ? "" : ", ") << provenance_[i];
    }
    doc << "},\n  \"points\": [\n";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      doc << "    {\"name\": \"" << p.name << "\", \"unit\": \"" << p.unit
          << "\", \"value\": " << p.value << ", \"better\": \""
          << (p.better == Better::kHigher ? "higher" : "lower") << "\"";
      if (p.bound) doc << ", \"bound\": " << *p.bound;
      doc << (i + 1 < points_.size() ? "},\n" : "}\n");
    }
    doc << "  ]\n}\n";
    const std::string path =
        support::env_str("COMMSCOPE_BENCH_OUT", default_path);
    std::ofstream out(path, std::ios::binary);
    out << doc.str();
    out.close();  // flushes, so a short write shows up in the stream state
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      std::exit(1);
    }
    std::cout << "wrote " << path << "\n";
  }

 private:
  struct Point {
    std::string name;
    std::string unit;
    double value;
    Better better;
    std::optional<double> bound;
  };
  std::string bench_;
  std::vector<std::string> provenance_;  ///< rendered `"key": value` pairs
  std::vector<Point> points_;
};

/// Standard bench banner with the effective configuration.
inline void banner(const char* title, int threads, support::Scale scale) {
  std::cout << "=== " << title << " ===\n"
            << "threads=" << threads << " scale=" << support::to_string(scale)
            << "  (override via COMMSCOPE_THREADS / COMMSCOPE_SCALE)\n\n";
}

}  // namespace commscope::bench
