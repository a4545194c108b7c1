// Batched-ingest throughput sweep (the tentpole's acceptance bench).
//
// Records the access streams of Figure 4 workload replicas once, then
// replays the identical event sequence through fresh profilers at a sweep of
// micro-batch sizes, measuring single-thread ingest throughput — the
// quantity the batch layer attacks: per-event dispatch, region lookup and,
// via hash-ahead prefetching of the striped signature memories, the random
// cache misses that dominate Figure 4's slowdown.
//
// Replay is deterministic: each worker's recorded stream is consumed in
// fixed round-robin chunks with an on_drain() at every chunk boundary, so
// the global processing order is identical at every batch size and the
// resulting matrices must be BIT-IDENTICAL to the unbatched run — the sweep
// verifies that for every batch size before reporting a single number.
//
// Output: a human table plus BENCH_ingest.json (bench_common.hpp's schema:
// provenance scale/threads/simd/events; points batch_N.events_per_sec per
// sweep size and batch_64.speedup, bound 1.0 — batching must beat inline
// ingest). $COMMSCOPE_BENCH_OUT overrides the JSON path.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/region_tree.hpp"
#include "support/simd.hpp"

namespace cb = commscope::bench;
namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cs = commscope::support;
namespace cw = commscope::workloads;

namespace {

// Recorded streams are structure-of-arrays — an address lane plus a packed
// meta lane (op kind in the top two bits, access size below) — so replay
// streams 12 bytes per event instead of a padded 16-byte record. The replay
// loop is inside the timed region, so every byte it streams and every
// branch it retires is measurement overhead diluting the batch-vs-inline
// ratio equally on both sides; keeping the harness lean keeps the reported
// speedup close to the profiler's own.
constexpr std::uint32_t kOpShift = 30;
constexpr std::uint32_t kSizeMask = (1u << kOpShift) - 1;
constexpr std::uint32_t kRead = 0;   // op field values
constexpr std::uint32_t kWrite = 1;
constexpr std::uint32_t kEnter = 2;
constexpr std::uint32_t kExit = 3;

struct Stream {
  std::vector<std::uintptr_t> addr;
  std::vector<std::uint32_t> meta;

  void push(std::uintptr_t a, std::uint32_t m) {
    addr.push_back(a);
    meta.push_back(m);
  }
  [[nodiscard]] std::size_t size() const { return meta.size(); }
};

/// Captures each worker's event stream into a private per-tid stream (the
/// workers only ever touch their own stream, so recording needs no locks).
class RecordingSink final : public ci::AccessSink {
 public:
  explicit RecordingSink(int threads) : streams_(std::size_t(threads)) {}

  void on_thread_begin(int) override {}
  void on_loop_enter(int tid, ci::LoopId id) override {
    streams_[std::size_t(tid)].push(id, kEnter << kOpShift);
  }
  void on_loop_exit(int tid) override {
    streams_[std::size_t(tid)].push(0, kExit << kOpShift);
  }
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 ci::AccessKind kind) override {
    streams_[std::size_t(tid)].push(
        addr, (size & kSizeMask) |
                  ((kind == ci::AccessKind::kWrite ? kWrite : kRead)
                   << kOpShift));
  }

  [[nodiscard]] const std::vector<Stream>& streams() const { return streams_; }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& s : streams_) n += s.size();
    return n;
  }

 private:
  std::vector<Stream> streams_;
};

/// Replays the recorded streams into `prof` on the calling thread: fixed
/// round-robin chunks per tid with a drain at every chunk boundary. The
/// order is a pure function of the recording, so every batch size processes
/// the exact same event sequence.
void replay(const std::vector<Stream>& streams, cc::Profiler& prof) {
  constexpr std::size_t kChunk = 256;  // >= kMaxBatchSize: full batches fit
  const int threads = static_cast<int>(streams.size());
  for (int t = 0; t < threads; ++t) prof.on_thread_begin(t);
  std::vector<std::size_t> cursor(streams.size(), 0);
  bool more = true;
  while (more) {
    more = false;
    for (int t = 0; t < threads; ++t) {
      const Stream& s = streams[std::size_t(t)];
      const std::uintptr_t* addr = s.addr.data();
      const std::uint32_t* meta = s.meta.data();
      std::size_t& i = cursor[std::size_t(t)];
      const std::size_t end = std::min(s.size(), i + kChunk);
      for (; i < end; ++i) {
        const std::uint32_t m = meta[i];
        const std::uint32_t op = m >> kOpShift;
        if (op <= kWrite) [[likely]] {
          prof.on_access(t, addr[i], m & kSizeMask,
                         op == kWrite ? ci::AccessKind::kWrite
                                      : ci::AccessKind::kRead);
        } else if (op == kEnter) {
          prof.on_loop_enter(t, static_cast<ci::LoopId>(addr[i]));
        } else {
          prof.on_loop_exit(t);
        }
      }
      prof.on_drain(t);
      if (i < s.size()) more = true;
    }
  }
  prof.finalize();
}

/// Every observable output must match cell-for-cell and node-for-node.
bool identical(const cc::Profiler& a, const cc::Profiler& b) {
  if (!(a.communication_matrix() == b.communication_matrix())) return false;
  const auto as = a.stats();
  const auto bs = b.stats();
  if (as.accesses != bs.accesses || as.reads != bs.reads ||
      as.writes != bs.writes || as.dependencies != bs.dependencies) {
    return false;
  }
  const auto an = a.regions().preorder();
  const auto bn = b.regions().preorder();
  if (an.size() != bn.size()) return false;
  for (std::size_t i = 0; i < an.size(); ++i) {
    if (an[i]->loop() != bn[i]->loop()) return false;
    if (!(an[i]->direct() == bn[i]->direct())) return false;
  }
  return true;
}

}  // namespace

int main() {
  const cb::TraceOutFromEnv trace_out;
  const int threads = cs::env_threads(8);
  const cs::Scale scale = cs::env_scale();
  cb::banner("Batched ingest throughput (events/sec, batch-size sweep)",
             threads, scale);

  // Record once. A communication-heavy mix from the Figure 4 registry keeps
  // the replay representative of the workloads whose slowdown the batch
  // layer targets.
  const char* const names[] = {"fft", "ocean_cp", "water_nsq"};
  commscope::threading::ThreadTeam team(threads);
  RecordingSink recording(threads);
  for (const char* name : names) {
    const cw::Workload* w = cw::find(name);
    if (w == nullptr || !w->run(scale, team, &recording).ok) {
      std::cerr << name << ": recording FAILED\n";
      return 1;
    }
  }
  const std::uint64_t events = recording.total();
  std::cout << "recorded " << events << " events from fft+ocean_cp+water_nsq\n"
            << "replay: single thread, round-robin chunks of 256, drain at "
               "every chunk boundary; hash kernel: "
            << cs::simd_level_name() << "\n\n";

  const std::uint32_t sweep[] = {0, 8, 16, 32, 64, 128, 256};
  constexpr std::size_t kConfigs = std::size(sweep);
  // Timesharing interference on the bench box arrives in multi-hundred-ms
  // bursts, so reps are interleaved round-robin across the sweep (a burst
  // lands on one rep of one config, not on every rep of one config) and the
  // per-config minimum — the interference-free estimate — is reported.
  // $COMMSCOPE_BENCH_REPS lowers/raises the rep count (CI runs fewer reps
  // to keep the perf gate fast; the committed baseline uses the default).
  const int reps = cb::bench_reps();

  auto run_once = [&](std::uint32_t batch, double& seconds) {
    auto prof = cb::make_profiler(threads);
    cc::ProfilerOptions o = prof->options();
    o.batch_size = batch;
    prof = std::make_unique<cc::Profiler>(o);
    seconds = cb::time_seconds([&] { replay(recording.streams(), *prof); });
    return prof;
  };

  double best[kConfigs];
  std::unique_ptr<cc::Profiler> result[kConfigs];
  for (std::size_t i = 0; i < kConfigs; ++i) best[i] = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < kConfigs; ++i) {
      double t = 0.0;
      auto p = run_once(sweep[i], t);
      if (t < best[i]) {
        best[i] = t;
      }
      if (rep == 0) result[i] = std::move(p);  // matrices are deterministic
    }
  }

  cb::BenchJson json("ingest_throughput");
  json.provenance("scale", cs::to_string(scale));
  json.provenance("threads", static_cast<std::uint64_t>(threads));
  json.provenance("simd", cs::simd_level_name());
  json.provenance("events", events);
  cs::Table table(
      {"batch", "best (ms)", "events/sec", "speedup", "bit-identical"});
  const double base_rate = static_cast<double>(events) / best[0];
  double at64 = 0.0;
  bool all_identical = true;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const std::uint32_t batch = sweep[i];
    const double rate = static_cast<double>(events) / best[i];
    const bool same = i == 0 || identical(*result[0], *result[i]);
    all_identical = all_identical && same;
    const double speedup = rate / base_rate;
    if (batch == 64) at64 = speedup;
    json.point("batch_" + std::to_string(batch) + ".events_per_sec",
               "events/s", rate, cb::Better::kHigher);
    table.add_row({std::to_string(batch), cs::Table::num(best[i] * 1e3, 2),
                   cs::Table::num(rate / 1e6, 2) + "M",
                   cs::Table::num(speedup, 2) + "x", same ? "yes" : "NO"});
  }
  table.print(std::cout);
  json.point("batch_64.speedup", "x", at64, cb::Better::kHigher, 1.0);

  std::cout << "\nspeedup at batch 64: " << cs::Table::num(at64, 2)
            << "x (target >= 2x); matrices "
            << (all_identical ? "bit-identical across the sweep"
                              : "DIVERGED — batching bug")
            << "\n";
  json.write("BENCH_ingest.json");

  return all_identical ? 0 : 1;
}
