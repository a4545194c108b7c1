// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <live_suite|replay_observed|serve_fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload from the current directory (the checkout root; scratch
// files go under .bench_build/run/ and are removed at exit). Prints the
// workload's supplementary tables, every metric by name with its unit, and
// as the last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set of a separate traced run, preceded by the span ledger. A
// metric of a layer the workload does not run reads 0. Exits 1 when any
// correctness check failed, 2 on a usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
namespace pb = perfbench;

/// Ledger coverage the traced run must reach: layer spans explain at least
/// this share of the traced wall.
constexpr double kLedgerTolerance = 0.95;

/// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"setup_s", "slowdown",
                                                 "profiler_mb", "peak_rss_mb"};
  return names;
}

/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"instrument.read_trace_s", "s"},
      {"core.profiler.access_ns", "ns"},
      {"core.profiler.loop_ns", "ns"},
      {"core.profiler.accesses_per_loop", "count"},
      {"core.profiler.busy_share", "ratio"},
      {"core.profiler.construct_ms", "ms"},
      {"core.profiler.finalize_ms", "ms"},
      {"core.profiler.drain_ns", "ns"},
      {"core.batch.fill", "ratio"},
      {"core.batch.gain", "x"},
      {"core.raw.drain_ns", "ns"},
      {"core.raw.deps_per_kaccess", "count"},
      {"support.hash_ns", "ns"},
      {"sigmem.mb", "MB"},
      {"sigmem.false_cells", "count"},
      {"sigmem.matrix_error", "ratio"},
      {"threading.access_skew", "x"},
      {"core.recorder.epochs", "count"},
      {"core.recorder.cells_per_epoch", "count"},
      {"core.recorder.marginal_ns", "ns"},
      {"core.phase.marginal_ns", "ns"},
      {"core.epoch_io.write_ms", "ms"},
      {"core.epoch_io.mb", "MB"},
      {"core.epoch_io.parse_us", "us"},
      {"core.report.render_ms", "ms"},
      {"resilience.guard.marginal_ns", "ns"},
      {"resilience.checkpoints", "count"},
      {"resilience.checkpoint_mb", "MB"},
      {"serve.shipper.ship_ms", "ms"},
      {"serve.shipper.retry_share", "ratio"},
      {"serve.frame.decode_us", "us"},
      {"serve.session.merge_us", "us"},
      {"serve.server.dup_share", "ratio"},
      {"serve.journal.append_us", "us"},
      {"serve.journal.fsyncs_per_kepoch", "count"},
      {"serve.journal.wal_mb", "MB"},
      {"serve.journal.replay_mb_per_s", "MB/s"},
      {"serve.ack_p50_ms", "ms"},
      {"serve.ack_p99_ms", "ms"},
      {"serve.ack_samples", "count"},
      {"serve.recovery_s", "s"},
      {"serve.stage.decode_us", "us"},
      {"serve.stage.dedupe_us", "us"},
      {"serve.stage.merge_us", "us"},
      {"serve.stage.journal_us", "us"},
      {"serve.stage.ack_us", "us"},
      {"serve.stage.e2e_us", "us"},
      {"trace.overhead", "x"},
      {"trace.coverage", "ratio"},
  };
  return names;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <live_suite|replay_observed|"
               "serve_fleet> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

void print_metric(const pb::Metric& m) {
  std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// One JSON number with all its digits; non-finite values cannot be JSON.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("unexpected argument '" + key + "'").c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(k) == 0) {
      return usage((std::string("missing --") + k).c_str());
    }
  }
  pb::RunConfig cfg;
  cfg.workload = args["workload"];
  try {
    cfg.seed = std::stoull(args["seed"]);
    cfg.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return usage("--trace takes 0 or 1");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  cfg.trace = args["trace"] == "1";

  using Fn = pb::Outcome (*)(const pb::RunConfig&);
  const std::map<std::string, Fn> workloads = {
      {"live_suite", &pb::run_live_suite},
      {"replay_observed", &pb::run_replay_observed},
      {"serve_fleet", &pb::run_serve_fleet},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return usage("unknown workload");

  cfg.work_dir = fs::path(".bench_build") / "run" /
                 (cfg.workload + "-" + std::to_string(::getpid()));

  // Provenance: the hash and drain paths dispatch on the SIMD level; the
  // hardware-counter engine stays off (ProfilerOptions::perf is false).
  std::printf("perfbench %s: seed %llu, %.0f s, trace %d, %d threads, "
              "simd %s, perf counters off\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, pb::kThreads,
              commscope::support::simd_level_name());
  pb::spans::enable(cfg.trace);
  pb::Outcome out;
  std::int64_t root = -1;
  try {
    fs::remove_all(cfg.work_dir);
    fs::create_directories(cfg.work_dir);
    const pb::spans::Span span("run", 0, pb::spans::kContainer);
    root = span.id();
    out = it->second(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    std::error_code ec;
    fs::remove_all(cfg.work_dir, ec);
    return 1;
  }

  std::map<std::string, pb::Metric> measured;
  for (const pb::Metric& m : out.metrics) measured[m.name] = m;

  if (cfg.trace) {
    const std::vector<pb::spans::Record> records = pb::spans::collect();
    const pb::spans::Ledger ledger = pb::spans::build_ledger(records, root);
    pb::spans::print_ledger(std::cout, ledger, kLedgerTolerance);
    out.check(ledger.coverage >= kLedgerTolerance,
              "layer spans cover less than the ledger tolerance of the "
              "traced wall");
    measured["trace.coverage"] = {"trace.coverage", ledger.coverage, "ratio"};
    const fs::path spans_file =
        fs::path(".bench_build") / ("spans-" + cfg.workload + ".tsv");
    pb::spans::write_records(spans_file, records);
    std::printf("%zu spans written to %s\n", records.size(),
                spans_file.c_str());
  }
  fs::remove_all(cfg.work_dir);

  std::vector<pb::Metric> reported;
  if (cfg.trace) {
    for (const auto& [name, unit] : per_layer_names()) {
      const auto m = measured.find(name);
      reported.push_back(
          {name, m == measured.end() ? 0.0 : m->second.value, unit});
    }
  } else {
    for (const std::string& name : end_to_end_names()) {
      const auto m = measured.find(name);
      out.check(m != measured.end(), "metric " + name + " was not measured");
      if (m != measured.end()) reported.push_back(m->second);
    }
  }
  for (const pb::Metric& m : reported) {
    out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("%s metrics (%s, seed %llu, %.0f s):\n",
              cfg.trace ? "per-layer" : "end-to-end", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds);
  for (const pb::Metric& m : reported) print_metric(m);
  if (!out.supplementary.empty()) {
    std::printf("supplementary (not gated):\n");
    for (const pb::Metric& m : out.supplementary) print_metric(m);
  }
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const pb::Metric& m = reported[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return out.failed == 0 ? 0 : 1;
}
