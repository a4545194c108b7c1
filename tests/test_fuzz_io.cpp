// Fuzz-style robustness tests for the text-format loaders.
//
// Every loader treats its input as hostile: seeded random byte flips and
// truncations of valid matrix, trace and checkpoint files must surface as a
// clean std::runtime_error — never a crash, hang, or silently-garbage
// result. Deterministic (support::SplitMix64 with fixed seeds) so any
// failure replays identically.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/comm_diff.hpp"
#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "core/matrix_io.hpp"
#include "core/profiler.hpp"
#include "instrument/loop_registry.hpp"
#include "instrument/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "serve/frame.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "support/memtrack.hpp"
#include "support/rng.hpp"
#include "support/textio.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace cs = commscope::support;

// --- allocation watching -----------------------------------------------------
//
// Global operator new override recording, per thread, the largest single
// request since the last reset: a loader that trusts a declared count shows
// up as one allocation sized by the lie.
namespace {
thread_local std::size_t tl_largest_alloc = 0;
}  // namespace

void* operator new(std::size_t size) {
  tl_largest_alloc = std::max(tl_largest_alloc, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  tl_largest_alloc = std::max(tl_largest_alloc, size);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

constexpr int kIterations = 200;

std::string valid_matrix_file() {
  cc::Matrix m(6);
  std::uint64_t v = 1;
  for (int p = 0; p < 6; ++p) {
    for (int c = 0; c < 6; ++c) m.at(p, c) = (v++ * 2654435761u) % 100000;
  }
  std::stringstream ss;
  cc::write_matrix(ss, m);
  return ss.str();
}

std::string valid_trace_file() {
  const ci::LoopId id =
      ci::LoopRegistry::instance().declare("test_fuzz_io", "loop");
  ci::TraceRecorder rec;
  rec.on_thread_begin(0);
  rec.on_thread_begin(1);
  rec.on_loop_enter(0, id);
  for (int i = 0; i < 40; ++i) {
    rec.on_access(0, 0x1000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kWrite);
    rec.on_access(1, 0x1000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  rec.on_loop_exit(0);
  std::stringstream ss;
  ci::write_trace(ss, rec.events());
  return ss.str();
}

std::string valid_checkpoint_file() {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  for (int i = 0; i < 20; ++i) {
    prof.on_access(0, 0x2000 + static_cast<std::uintptr_t>(i) * 8, 8,
                   ci::AccessKind::kWrite);
    prof.on_access(1, 0x2000 + static_cast<std::uintptr_t>(i) * 8, 8,
                   ci::AccessKind::kRead);
  }
  cr::CheckpointMeta meta;
  meta.events = 80;
  return serialize_checkpoint(prof, meta, prof.stats());
}

/// Flips one random byte (possibly to an arbitrary value) or truncates at a
/// random position, driven by `rng`.
std::string damage(const std::string& original, cs::SplitMix64& rng) {
  std::string text = original;
  if (rng.next_below(4) == 0) {
    return text.substr(0, rng.next_below(text.size()));
  }
  const std::size_t pos = static_cast<std::size_t>(rng.next_below(text.size()));
  const char replacement = static_cast<char>(rng.next_below(256));
  if (text[pos] == replacement) {
    text[pos] = static_cast<char>(replacement ^ 0x5a);
  } else {
    text[pos] = replacement;
  }
  return text;
}

}  // namespace

TEST(FuzzIo, DamagedMatrixFilesAlwaysThrowCleanly) {
  const std::string original = valid_matrix_file();
  cs::SplitMix64 rng(0xfadedbee);
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::stringstream ss(damage(original, rng));
    try {
      (void)cc::read_matrix(ss);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    // No other exception type and no crash: anything else fails the test.
  }
  // Version-2 files carry a CRC over the whole payload, so *every* damaged
  // variant must be rejected.
  EXPECT_EQ(rejected, kIterations);
}

TEST(FuzzIo, DamagedTraceFilesNeverCrash) {
  const std::string original = valid_trace_file();
  cs::SplitMix64 rng(0x7e57ab1e);
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::stringstream ss(damage(original, rng));
    try {
      (void)ci::read_trace(ss);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, kIterations);
}

TEST(FuzzIo, DamagedBenchFilesNeverCrash) {
  // `commscope diff --bench` reads files from CI artifacts: a damaged one
  // must compare or throw std::runtime_error (exit 1), never anything else.
  const std::string original =
      "{\n  \"bench\": \"ingest_throughput\",\n  \"provenance\": "
      "{\"scale\": \"simsmall\", \"threads\": 8, \"events\": 2153752},\n"
      "  \"points\": [\n"
      "    {\"name\": \"batch_0.events_per_sec\", \"unit\": \"events/s\", "
      "\"value\": 3.79375e+07, \"better\": \"higher\"},\n"
      "    {\"name\": \"batch_64.speedup\", \"unit\": \"x\", "
      "\"value\": 1.29018, \"better\": \"higher\", \"bound\": 1}\n"
      "  ]\n}\n";
  ASSERT_FALSE(cc::diff_bench(original, original).regressed);
  cs::SplitMix64 rng(0xbe7c4);
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string damaged = damage(original, rng);
    for (const bool damaged_is_fresh : {true, false}) {
      try {
        (void)(damaged_is_fresh ? cc::diff_bench(original, damaged)
                                : cc::diff_bench(damaged, original));
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(FuzzIo, TraceCountLiesNeverOverAllocate) {
  // A v3 trace whose count line claims more (or fewer) events than its
  // block holds must be refused, and may not allocate more than read_trace's
  // 2^20-event reserve ahead of the bytes actually read.
  constexpr std::size_t kReserveBytes = (std::size_t{1} << 20) * 16;
  const std::string original = valid_trace_file();
  const std::size_t count_at = original.find('\n') + 1;
  const std::size_t count_end = original.find('\n', count_at);
  const std::uint64_t actual =
      std::stoull(original.substr(count_at, count_end - count_at));
  std::vector<std::string> lies = {"0",
                                   "1",
                                   std::to_string(actual - 1),
                                   std::to_string(actual + 1),
                                   std::to_string(2 * actual),
                                   std::to_string(1u << 20),
                                   std::to_string((1u << 20) + 1),
                                   std::to_string(1u << 26),
                                   std::to_string((1u << 26) + 1),
                                   "18446744073709551615",
                                   "99999999999999999999",
                                   "-1",
                                   ""};
  cs::SplitMix64 rng(0x1e5c0de);
  for (int i = 0; i < 32; ++i) {
    lies.push_back(std::to_string(rng.next_below(1u << 26)));
  }
  for (const std::string& lie : lies) {
    std::string file = original;
    file.replace(count_at, count_end - count_at, lie);
    std::stringstream ss(file);
    tl_largest_alloc = 0;
    EXPECT_THROW((void)ci::read_trace(ss), std::runtime_error) << lie;
    EXPECT_LE(tl_largest_alloc, kReserveBytes) << lie;
    // The file itself is a few KiB: nothing near the claimed block size
    // was allocated.
    if (lie.size() > 7) {
      EXPECT_LT(static_cast<double>(tl_largest_alloc),
                16 * std::strtod(lie.c_str(), nullptr))
          << lie;
    }
  }
}

TEST(FuzzIo, DamagedCheckpointFilesAlwaysThrowCleanly) {
  const std::string original = valid_checkpoint_file();
  cs::SplitMix64 rng(0xc0ffee);
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    try {
      (void)cr::parse_checkpoint_text(damage(original, rng));
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, kIterations);
}

TEST(FuzzIo, UndamagedFilesStillParse) {
  std::stringstream m(valid_matrix_file());
  EXPECT_EQ(cc::read_matrix(m).size(), 6);
  std::stringstream t(valid_trace_file());
  EXPECT_FALSE(ci::read_trace(t).empty());
  EXPECT_EQ(cr::parse_checkpoint_text(valid_checkpoint_file()).threads, 4);
}

// --- serve records (wire + WAL) and snapshots ------------------------------
// The daemon's FrameDecoder sits on a public socket, and after a crash the
// WAL and snapshot on disk are arbitrary bytes. Both record streams go
// through the one record codec, so one fuzz target drives both kinds:
// seeded damage, length-prefix lies and garbage must end in a validated
// prefix plus a typed refusal (or a torn tail) — never a crash, never an
// allocation a length prefix merely claims. Snapshots must reject whole.

namespace {

namespace sv = commscope::serve;
namespace core = commscope::core;

core::EpochTimeline tiny_timeline(std::uint64_t first_index, int epochs) {
  core::EpochTimeline t;
  t.threads = 4;
  for (int i = 0; i < epochs; ++i) {
    core::EpochSample e;
    e.index = first_index + static_cast<std::uint64_t>(i);
    e.reason = core::EpochSeal::kAccesses;
    core::EpochCell c;
    c.producer = 0;
    c.consumer = 1;
    c.bytes = 64 + static_cast<std::uint64_t>(i);
    e.cells.push_back(c);
    e.bytes = c.bytes;
    t.epochs.push_back(e);
    ++t.sealed;
  }
  return t;
}

std::string epochs_payload(std::uint64_t session,
                           const core::EpochTimeline& t) {
  std::ostringstream os;
  commscope::core::write_epochs(os, t);
  return "session " + std::to_string(session) + "\n" + os.str();
}

std::vector<sv::WalRecord> valid_wal_records() {
  std::vector<sv::WalRecord> r;
  r.push_back({1, sv::WalRecordType::kHello, "session 7 threads 4"});
  r.push_back({2, sv::WalRecordType::kEpochs,
               epochs_payload(7, tiny_timeline(0, 3))});
  r.push_back({3, sv::WalRecordType::kEpochs,
               epochs_payload(7, tiny_timeline(3, 2))});
  r.push_back({4, sv::WalRecordType::kSeal, "session 7"});
  return r;
}

std::string wal_image(const std::vector<sv::WalRecord>& records) {
  std::string image;
  for (const sv::WalRecord& r : records) {
    image += sv::encode_wal_record(r.type, r.lsn, r.payload);
  }
  return image;
}

std::string valid_snapshot() {
  commscope::support::MemoryTracker tracker;
  std::map<std::uint64_t, sv::Session> sessions;
  sv::Session s;
  s.id = 7;
  s.threads = 4;
  s.seen = {0, 1, 2, 3, 4};
  s.epochs_merged = 5;
  sessions.emplace(7, std::move(s));
  sv::Aggregate agg(8, &tracker);
  const core::EpochTimeline t = tiny_timeline(0, 5);
  for (const auto& e : t.epochs) agg.merge(t, e);
  return sv::serialize_serve_state(sessions, agg, 42);
}

/// Runs restore_serve_state on hostile text; true iff it threw cleanly.
bool snapshot_rejected(const std::string& text) {
  commscope::support::MemoryTracker tracker;
  std::map<std::uint64_t, sv::Session> sessions;
  sv::Aggregate agg(8, &tracker);
  std::uint64_t lsn = 0;
  try {
    sv::restore_serve_state(text, sessions, agg, lsn, &tracker);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

}  // namespace

namespace {

/// One decoded record, whichever kind it came from (wire frames have seq 0).
struct AnyRecord {
  int type = 0;
  std::uint64_t seq = 0;
  std::string payload;
  bool operator==(const AnyRecord&) const = default;
};

enum class End { kClean, kTorn, kBad };

/// How a reader ended on one byte image.
struct ReadOutcome {
  std::vector<AnyRecord> records;
  End end = End::kClean;
  std::string reason;            ///< to_string(RecordError) when kBad
  std::size_t max_capacity = 0;  ///< largest payload buffer the reader held
};

/// A record kind under test: a valid stream, its encoder and its reader.
struct RecordKindUnderTest {
  const char* name;
  std::vector<AnyRecord> valid;
  std::string (*encode)(const AnyRecord&);
  ReadOutcome (*read)(std::string_view bytes, std::uint32_t cap);
};

std::string encode_wire(const AnyRecord& r) {
  return sv::encode_frame(static_cast<sv::FrameType>(r.type), r.payload);
}

std::string encode_wal(const AnyRecord& r) {
  return sv::encode_wal_record(static_cast<sv::WalRecordType>(r.type), r.seq,
                               r.payload);
}

ReadOutcome read_wire(std::string_view bytes, std::uint32_t cap) {
  sv::FrameDecoder d(cap);
  ReadOutcome o;
  const bool ok = d.feed(bytes.data(), bytes.size());
  o.max_capacity = d.buffer_capacity();
  while (auto f = d.next()) {
    o.max_capacity = std::max(o.max_capacity, f->payload.capacity());
    o.records.push_back(
        {static_cast<int>(f->type), 0, std::move(f->payload)});
  }
  if (!ok) {
    o.end = End::kBad;
    o.reason = sv::to_string(d.error());
    // A poisoned decoder stays poisoned, even when fed a pristine frame.
    const std::string fresh = sv::encode_frame(sv::FrameType::kBye, {});
    EXPECT_FALSE(d.feed(fresh.data(), fresh.size()));
    EXPECT_FALSE(d.next().has_value());
  } else if (d.mid_frame()) {
    o.end = End::kTorn;
  }
  return o;
}

ReadOutcome read_wal(std::string_view bytes, std::uint32_t cap) {
  sv::WalReader reader(bytes, cap);
  ReadOutcome o;
  std::size_t used = 0;
  while (auto r = reader.next()) {
    used += sv::kRecordHeaderBytes + r->payload.size();
    o.max_capacity = std::max(o.max_capacity, r->payload.capacity());
    o.records.push_back(
        {static_cast<int>(r->type), r->lsn, std::move(r->payload)});
  }
  EXPECT_EQ(reader.consumed(), used);
  switch (reader.stop()) {
    case sv::WalStop::kClean: o.end = End::kClean; break;
    case sv::WalStop::kTorn: o.end = End::kTorn; break;
    case sv::WalStop::kBad:
      o.end = End::kBad;
      o.reason = reader.stop_reason();
      break;
  }
  return o;
}

std::vector<RecordKindUnderTest> record_kinds() {
  const auto t = [](auto type) { return static_cast<int>(type); };
  std::vector<RecordKindUnderTest> kinds;
  kinds.push_back(
      {"wire",
       {{t(sv::FrameType::kHello), 0, "commscope-hello 1 session 99 threads 4"},
        {t(sv::FrameType::kEpochs), 0,
         std::string(300, 'e') + " epoch document body"},
        {t(sv::FrameType::kHeartbeat), 0, ""}},
       encode_wire,
       read_wire});
  std::vector<AnyRecord> wal;
  for (const sv::WalRecord& r : valid_wal_records()) {
    wal.push_back({t(r.type), r.lsn, r.payload});
  }
  kinds.push_back({"wal", std::move(wal), encode_wal, read_wal});
  return kinds;
}

std::string encode_all(const RecordKindUnderTest& kind) {
  std::string image;
  for (const AnyRecord& r : kind.valid) image += kind.encode(r);
  return image;
}

/// True for the provenance strings the codec's error enum renders.
bool typed_reason(const std::string& reason) {
  for (const sv::RecordError e :
       {sv::RecordError::kBadMagic, sv::RecordError::kBadType,
        sv::RecordError::kOversize, sv::RecordError::kEmptyPayload,
        sv::RecordError::kBadCrc}) {
    if (reason == sv::to_string(e)) return true;
  }
  return false;
}

/// Rewrites a record's payload_len field (little-endian u32) in place.
void set_payload_len(std::string& record, std::uint64_t len) {
  for (std::size_t i = 0; i < 4; ++i) {
    record[sv::kRecordLenAt + i] = static_cast<char>(len >> (8 * i));
  }
}

}  // namespace

TEST(FuzzIo, DamagedRecordStreamsYieldValidatedPrefixNeverCrash) {
  constexpr std::uint32_t kCap = 4096;
  for (const RecordKindUnderTest& kind : record_kinds()) {
    SCOPED_TRACE(kind.name);
    const std::string image = encode_all(kind);
    const ReadOutcome pristine = kind.read(image, kCap);
    EXPECT_EQ(pristine.end, End::kClean);
    EXPECT_EQ(pristine.records, kind.valid);

    cs::SplitMix64 rng(0x5eed0a11);
    int bad = 0;
    int torn = 0;
    for (int i = 0; i < kIterations; ++i) {
      const std::string hostile = damage(image, rng);
      const ReadOutcome o = kind.read(hostile, kCap);
      // Single-byte damage (or truncation) cannot forge a CRC, so whatever
      // the reader yields is an exact prefix of the originals.
      ASSERT_LE(o.records.size(), kind.valid.size());
      std::size_t used = 0;
      for (std::size_t k = 0; k < o.records.size(); ++k) {
        EXPECT_EQ(o.records[k], kind.valid[k]);
        used += sv::kRecordHeaderBytes + o.records[k].payload.size();
      }
      switch (o.end) {
        case End::kClean:  // only a cut exactly at a record boundary
          EXPECT_EQ(used, hostile.size());
          break;
        case End::kTorn:  // truncated mid-record: recoverable, not hostile
          ++torn;
          EXPECT_LT(used, hostile.size());
          break;
        case End::kBad:  // refused with provenance
          ++bad;
          EXPECT_TRUE(typed_reason(o.reason)) << o.reason;
          break;
      }
      // The cap bounds payload allocation no matter what a header claimed.
      EXPECT_LE(o.max_capacity, std::size_t{kCap} * 2);
    }
    // The seeded damage mix must exercise both refusal outcomes.
    EXPECT_GT(bad, 0);
    EXPECT_GT(torn, 0);
  }
}

TEST(FuzzIo, RecordLengthPrefixLiesNeverOverAllocate) {
  constexpr std::uint32_t kCap = 1024;
  for (const RecordKindUnderTest& kind : record_kinds()) {
    SCOPED_TRACE(kind.name);
    // valid[1] is each kind's epochs record, a type that needs a payload.
    const AnyRecord victim{kind.valid[1].type, kind.valid[1].seq,
                           "short payload"};
    const std::uint64_t actual = victim.payload.size();
    std::vector<std::uint64_t> lies = {0,    1,        actual - 1, actual + 1,
                                       kCap, kCap + 1, 0xffffffffull};
    cs::SplitMix64 rng(0x11e5);
    for (int i = 0; i < kIterations; ++i) {
      lies.push_back(rng.next_below(0xffffffffull));
    }
    for (const std::uint64_t lie : lies) {
      std::string rec = kind.encode(victim);
      set_payload_len(rec, lie);
      const ReadOutcome o = kind.read(rec, kCap);
      EXPECT_TRUE(o.records.empty()) << "lie " << lie;
      EXPECT_LE(o.max_capacity, std::size_t{kCap} * 2);
      if (lie == 0 || lie > kCap) {
        // Refused on the header alone, before any payload buffering.
        EXPECT_EQ(o.end, End::kBad) << "lie " << lie;
        EXPECT_TRUE(o.reason == sv::to_string(sv::RecordError::kOversize) ||
                    o.reason ==
                        sv::to_string(sv::RecordError::kEmptyPayload))
            << o.reason;
      } else if (lie > actual) {
        // A claim past the bytes present is what kill -9 mid-write leaves.
        EXPECT_EQ(o.end, End::kTorn) << "lie " << lie;
      } else {
        // A short claim cuts the payload the CRC was taken over.
        EXPECT_EQ(o.end, End::kBad) << "lie " << lie;
        EXPECT_EQ(o.reason, sv::to_string(sv::RecordError::kBadCrc));
      }
    }
  }
}

TEST(FuzzIo, PureGarbageRecordStreamsRefusedAsBadMagic) {
  for (const RecordKindUnderTest& kind : record_kinds()) {
    SCOPED_TRACE(kind.name);
    cs::SplitMix64 rng(0xbadbeef);
    for (int i = 0; i < 32; ++i) {
      std::string junk;
      const std::size_t len = 1 + rng.next_below(512);
      for (std::size_t k = 0; k < len; ++k) {
        junk.push_back(static_cast<char>(rng.next_below(256)));
      }
      const ReadOutcome o = kind.read(junk, 1024);
      EXPECT_TRUE(o.records.empty());
      if (junk.size() < sv::kRecordHeaderBytes) {
        EXPECT_EQ(o.end, End::kTorn);
      } else {
        EXPECT_EQ(o.end, End::kBad);
        EXPECT_EQ(o.reason, sv::to_string(sv::RecordError::kBadMagic));
      }
      EXPECT_LE(o.max_capacity, std::size_t{2048});
    }
  }
}

TEST(FuzzIo, DuplicatedAndReorderedWalRecordsMergeExactlyOnce) {
  // Replay is semantic, not positional: duplicated records dedupe through
  // the session ledger, records for sessions that never said hello are
  // skipped with provenance, and the rebuilt aggregate matches the
  // exactly-once merge. This is the crafted-WAL (not just torn-WAL) case.
  namespace core = commscope::core;
  const std::string dir = "/tmp/cs_fuzz_wal_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0777);
  const core::EpochTimeline t1 = tiny_timeline(0, 3);
  const core::EpochTimeline t2 = tiny_timeline(3, 2);
  std::vector<sv::WalRecord> records;
  records.push_back({1, sv::WalRecordType::kHello, "session 7 threads 4"});
  records.push_back({2, sv::WalRecordType::kEpochs, epochs_payload(7, t1)});
  records.push_back({3, sv::WalRecordType::kEpochs, epochs_payload(7, t1)});
  records.push_back({4, sv::WalRecordType::kSeal, "session 99"});  // unknown
  records.push_back({5, sv::WalRecordType::kEpochs, epochs_payload(42, t2)});
  records.push_back({6, sv::WalRecordType::kEpochs, epochs_payload(7, t2)});
  {
    std::ofstream wal(dir + "/wal.log", std::ios::binary | std::ios::trunc);
    const std::string image = wal_image(records);
    wal.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  std::remove((dir + "/snapshot.commscope").c_str());

  sv::ServeOptions o;
  o.socket_path = dir + "/sock";
  o.state_dir = dir;
  sv::ServeServer server(o);
  ASSERT_TRUE(server.open()) << server.last_error();
  const sv::ServeStats st = server.snapshot();
  EXPECT_EQ(st.recovery_records, 6u);
  EXPECT_EQ(st.recovered_epochs, 5u);   // 3 + 2, duplicates absorbed
  EXPECT_GE(st.recovery_skipped, 1u);   // session 42 never said hello
  core::Matrix expected = t1.total();
  expected += t2.total();
  EXPECT_TRUE(server.merged_matrix() == expected);
}

TEST(FuzzIo, DamagedSnapshotsAlwaysThrowCleanly) {
  const std::string original = valid_snapshot();
  cs::SplitMix64 rng(0x5a55a55a);
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    if (snapshot_rejected(damage(original, rng))) ++rejected;
  }
  // The CRC trailer covers the whole image: every damaged variant rejects.
  EXPECT_EQ(rejected, kIterations);
}

TEST(FuzzIo, CrcValidButHostileSnapshotsRejectBeforeAllocation) {
  // An attacker (or a bad disk plus luck) can produce a snapshot whose CRC
  // is self-consistent but whose counts lie. Every cap must trip before
  // the allocation it guards.
  const auto forge = [](const std::string& body) {
    return commscope::support::with_crc_trailer(std::string(body));
  };
  // Claims 2^20 sessions.
  EXPECT_TRUE(snapshot_rejected(
      forge("commscope-serve-snapshot 1\nlsn 0\nsessions 1048576\n")));
  // One session claiming a 999-million-entry dedupe ledger.
  EXPECT_TRUE(snapshot_rejected(forge(
      "commscope-serve-snapshot 1\nlsn 0\nsessions 1\n"
      "session 7 threads 4 state active merged 0 deduped 0 seen 999000000\n")));
  // Zero threads.
  EXPECT_TRUE(snapshot_rejected(forge(
      "commscope-serve-snapshot 1\nlsn 0\nsessions 1\n"
      "session 7 threads 0 state active merged 0 deduped 0 seen 0\n")));
  // Aggregate claiming a 100k-thread dense matrix.
  EXPECT_TRUE(snapshot_rejected(forge(
      "commscope-serve-snapshot 1\nlsn 0\nsessions 0\n"
      "aggregate threads 100000 sealed 0 dropped 0 labels 0 ring 0\n"
      "cells\n")));
  // Truncated: sessions promised but absent.
  EXPECT_TRUE(snapshot_rejected(
      forge("commscope-serve-snapshot 1\nlsn 0\nsessions 3\n")));
  // Wrong version.
  EXPECT_TRUE(snapshot_rejected(
      forge("commscope-serve-snapshot 2\nlsn 0\nsessions 0\n")));
  // And the control: the untampered image restores.
  EXPECT_FALSE(snapshot_rejected(valid_snapshot()));
}
