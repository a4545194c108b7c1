// Durable-serve merge-throughput + recovery bench (the WAL acceptance
// bench).
//
// Measures the daemon's end-to-end epoch merge rate — shipper frames over
// the Unix socket, CRC + parse + dedupe + merge, delivery ack — at each rung
// of the durability ladder, plus the recovery replay rate over a large WAL
// tail. The quantity the journal must not tax: the acceptance bar is a
// <= 10% merge-throughput regression at the default fsync-per-N rung
// relative to the volatile (no --state-dir) daemon.
//
// Points (bench_common.hpp's schema, so `commscope diff --bench` gates
// each against the committed baseline):
//   volatile.epochs_per_sec   volatile daemon (no WAL)        — the baseline
//   per_n.epochs_per_sec      WAL, fsync=per-n (default 256)  — default rung
//   per_ack.epochs_per_sec    WAL, fsync=per-ack              — strict rung
//   recovery.records_per_sec  ServeServer::open() replaying a WAL tail
// Provenance: epochs, epochs_per_frame, recovery_records.
//
// Output: a human table plus BENCH_serve.json. $COMMSCOPE_BENCH_OUT
// overrides the JSON path; $COMMSCOPE_BENCH_REPS the repetition count
// (best-of is reported).
#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/shipper.hpp"
#include "support/rng.hpp"

namespace cb = commscope::bench;
namespace cc = commscope::core;
namespace cs = commscope::support;
namespace sv = commscope::serve;

namespace {

constexpr int kEpochsTotal = 4096;   ///< epochs shipped per measured run
constexpr int kEpochsPerFrame = 32;  ///< one flush (= one WAL append) each
constexpr int kRecoveryRecords = 10'000;

std::string unique_path(const char* stem, int n) {
  return "/tmp/cs_bench_" + std::string(stem) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(n);
}

void wipe_state(const std::string& dir) {
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snapshot.commscope").c_str());
  std::remove((dir + "/snapshot.commscope.tmp").c_str());
  ::rmdir(dir.c_str());
}

/// Deterministic 4-thread ground truth, `epochs` epochs from `first`.
cc::EpochTimeline make_truth(int epochs, std::uint64_t first,
                             std::uint64_t seed) {
  cs::SplitMix64 rng(seed);
  cc::EpochTimeline t;
  t.threads = 4;
  t.sealed = static_cast<std::uint64_t>(epochs);
  t.loop_labels.emplace_back(0, "bench:serve");
  for (int i = 0; i < epochs; ++i) {
    cc::EpochSample e;
    e.index = first + static_cast<std::uint64_t>(i);
    e.reason = cc::EpochSeal::kAccesses;
    const int cells = 1 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < cells; ++k) {
      cc::EpochCell c;
      c.producer = static_cast<std::uint16_t>(rng.next_below(4));
      c.consumer = static_cast<std::uint16_t>(rng.next_below(4));
      c.bytes = 1 + rng.next_below(512);
      e.bytes += c.bytes;
      e.cells.push_back(c);
    }
    cc::EpochLoopShare share;
    share.loop = 0;
    share.bytes = e.bytes;
    e.loops.push_back(share);
    t.epochs.push_back(std::move(e));
  }
  return t;
}

struct Mode {
  int id;  ///< distinguishes the run's socket, state dir and payload seed
  const char* point;
  const char* name;
  bool wal;
  sv::FsyncPolicy policy;
};

/// One measured delivery run: daemon up (per `mode`), one session ships
/// kEpochsTotal epochs in kEpochsPerFrame chunks, daemon down. Returns
/// seconds from first offer to last ack.
double run_delivery(const Mode& mode, int rep) {
  const std::string socket = unique_path("sock", mode.id * 100 + rep);
  const std::string state = unique_path("state", mode.id * 100 + rep);
  wipe_state(state);
  sv::ServeOptions o;
  o.socket_path = socket;
  o.poll_ms = 1;
  o.reap_ms = 0;
  if (mode.wal) {
    o.state_dir = state;
    o.fsync_policy = mode.policy;
  }
  sv::ServeServer server(o);
  if (!server.open()) {
    std::cerr << "serve open failed: " << server.last_error() << "\n";
    std::exit(1);
  }
  std::thread loop([&] { server.run(); });

  sv::ShipperOptions so;
  so.socket_path = socket;
  so.session_id = 1000 + static_cast<std::uint64_t>(rep);
  so.threads = 4;
  so.max_attempts = 8;
  so.spill_path = socket + ".spill.epochs";
  const cc::EpochTimeline truth =
      make_truth(kEpochsTotal, 0, 0xBE7C << (mode.id & 7));
  double seconds = 0.0;
  {
    sv::EpochShipper shipper(so);
    seconds = cb::time_seconds([&] {
      cc::EpochTimeline chunk;
      chunk.threads = truth.threads;
      chunk.loop_labels = truth.loop_labels;
      for (int base = 0; base < kEpochsTotal; base += kEpochsPerFrame) {
        chunk.epochs.assign(
            truth.epochs.begin() + base,
            truth.epochs.begin() +
                std::min(base + kEpochsPerFrame, kEpochsTotal));
        chunk.sealed = chunk.epochs.size();
        if (!shipper.ship(chunk)) {
          std::cerr << "ship failed at epoch " << base << "\n";
          std::exit(1);
        }
      }
    });
  }
  const sv::ServeStats st = server.snapshot();
  if (st.epochs_merged != static_cast<std::uint64_t>(kEpochsTotal)) {
    std::cerr << "merge mismatch: " << st.epochs_merged << " of "
              << kEpochsTotal << "\n";
    std::exit(1);
  }
  server.stop();
  loop.join();
  std::remove(so.spill_path.c_str());
  std::remove(socket.c_str());
  wipe_state(state);
  return seconds;
}

/// One measured recovery: a kRecoveryRecords-record WAL tail (hello + one
/// single-epoch record each) replayed by ServeServer::open(). Returns
/// seconds spent inside open().
double run_recovery(int rep) {
  const std::string socket = unique_path("rsock", rep);
  const std::string state = unique_path("rstate", rep);
  wipe_state(state);
  {
    sv::JournalOptions jo;
    jo.dir = state;
    jo.policy = sv::FsyncPolicy::kOnCompaction;
    jo.compact_every = 0;
    sv::Journal j(jo);
    std::string snapshot, err;
    std::vector<sv::WalRecord> tail;
    if (!j.recover(snapshot, tail, err) || !j.open(err)) {
      std::cerr << "journal open failed: " << err << "\n";
      std::exit(1);
    }
    bool ok = j.append(sv::WalRecordType::kHello, "session 5 threads 4",
                       false);
    for (int i = 1; ok && i < kRecoveryRecords; ++i) {
      const cc::EpochTimeline one =
          make_truth(1, static_cast<std::uint64_t>(i),
                     0x5EED + static_cast<std::uint64_t>(i));
      std::ostringstream doc;
      cc::write_epochs(doc, one);
      ok = j.append(sv::WalRecordType::kEpochs, "session 5\n" + doc.str(),
                    false);
    }
    if (!ok) {
      std::cerr << "journal append failed\n";
      std::exit(1);
    }
  }
  sv::ServeOptions o;
  o.socket_path = socket;
  o.state_dir = state;
  sv::ServeServer server(o);
  const double seconds = cb::time_seconds([&] {
    if (!server.open()) {
      std::cerr << "recovery open failed: " << server.last_error() << "\n";
      std::exit(1);
    }
  });
  const sv::ServeStats st = server.snapshot();
  if (st.recovery_records != static_cast<std::uint64_t>(kRecoveryRecords)) {
    std::cerr << "recovery mismatch: " << st.recovery_records << " of "
              << kRecoveryRecords << "\n";
    std::exit(1);
  }
  std::remove(socket.c_str());
  wipe_state(state);
  return seconds;
}

}  // namespace

int main() {
  cb::TraceOutFromEnv trace_out;
  const int reps = cb::bench_reps();
  std::cout << "=== serve durability: merge throughput + recovery ===\n"
            << "epochs=" << kEpochsTotal << " frame=" << kEpochsPerFrame
            << " recovery_records=" << kRecoveryRecords << " reps=" << reps
            << "\n\n";

  const Mode modes[] = {
      {0, "volatile", "volatile (no WAL)", false,
       sv::FsyncPolicy::kOnCompaction},
      {1, "per_n", "wal fsync=per-n", true, sv::FsyncPolicy::kPerN},
      {2, "per_ack", "wal fsync=per-ack", true, sv::FsyncPolicy::kPerAck},
  };
  cb::BenchJson json("serve_durability");
  json.provenance("epochs", std::uint64_t{kEpochsTotal});
  json.provenance("epochs_per_frame", std::uint64_t{kEpochsPerFrame});
  json.provenance("recovery_records", std::uint64_t{kRecoveryRecords});
  double rates[std::size(modes)];
  for (const Mode& m : modes) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) best = std::min(best, run_delivery(m, r));
    rates[m.id] = kEpochsTotal / best;
    json.point(std::string(m.point) + ".epochs_per_sec", "epochs/s",
               rates[m.id], cb::Better::kHigher);
    std::printf("  %-20s  %8.4fs  %12.0f epochs/s\n", m.name, best,
                rates[m.id]);
  }
  {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) best = std::min(best, run_recovery(r));
    const double rate = kRecoveryRecords / best;
    json.point("recovery.records_per_sec", "records/s", rate,
               cb::Better::kHigher);
    std::printf("  %-20s  %8.4fs  %12.0f records/s\n", "recovery replay",
                best, rate);
  }

  std::printf("\n  per-n overhead vs volatile: %.1f%% (target: <= 10%%, "
              "not gated)\n\n",
              (1.0 - rates[1] / rates[0]) * 100.0);
  json.write("BENCH_serve.json");
  return 0;
}
