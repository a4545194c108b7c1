#include "serve/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>

#include "support/textio.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::serve {

namespace ctl = telemetry;

namespace {

constexpr const char* kSnapshotMagic = "commscope-serve-snapshot";
constexpr int kSnapshotVersion = 1;
constexpr std::uint64_t kMaxSessions = 1u << 16;
/// Per-session dedupe-ledger ceiling. Far above anything the bounded ring
/// can retain, but finite: a lying snapshot cannot allocate without bound.
constexpr std::uint64_t kMaxSeen = 1u << 24;
constexpr std::size_t kMaxSnapshotBytes = 512u << 20;
/// An fsync slower than this, three times in a row, walks the durability
/// ladder down one rung (sustained latency pressure, not a lone hiccup).
constexpr std::uint64_t kSlowFsyncMicros = 50'000;
constexpr int kSlowFsyncStreak = 3;
constexpr int kFastFsyncStreak = 64;

/// kill -9 semantics for the injected crash points: the process must vanish
/// mid-operation exactly as an external SIGKILL would take it, with no
/// destructors, flushes or atexit hooks softening the landing.
[[noreturn]] void die_like_kill_nine() {
  ::kill(::getpid(), SIGKILL);
  ::_exit(137);  // unreachable unless SIGKILL delivery is somehow deferred
}

}  // namespace

const char* to_string(WalRecordType t) noexcept {
  switch (t) {
    case WalRecordType::kHello: return "hello";
    case WalRecordType::kEpochs: return "epochs";
    case WalRecordType::kSeal: return "seal";
    case WalRecordType::kReap: return "reap";
    case WalRecordType::kDrop: return "drop";
  }
  return "?";
}

const char* to_string(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::kPerAck: return "per-ack";
    case FsyncPolicy::kPerN: return "per-n";
    case FsyncPolicy::kOnCompaction: return "on-compaction";
  }
  return "?";
}

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view s) noexcept {
  if (s == "per-ack") return FsyncPolicy::kPerAck;
  if (s == "per-n") return FsyncPolicy::kPerN;
  if (s == "on-compaction") return FsyncPolicy::kOnCompaction;
  return std::nullopt;
}

std::string encode_wal_record(WalRecordType type, std::uint64_t lsn,
                              std::string_view payload) {
  std::string out;
  encode_record(out, kWalRecord, static_cast<std::uint8_t>(type), lsn, {},
                payload);
  return out;
}

std::nullopt_t WalReader::stop_at(WalStop stop, const char* reason) noexcept {
  done_ = true;
  stop_ = stop;
  reason_ = reason;
  return std::nullopt;
}

std::optional<WalRecord> WalReader::next() {
  if (done_) return std::nullopt;
  const std::size_t remain = image_.size() - cursor_;
  if (remain == 0) return stop_at(WalStop::kClean, "clean");
  if (remain < kRecordHeaderBytes) {
    return stop_at(WalStop::kTorn, "torn-header");
  }
  const auto* h =
      reinterpret_cast<const unsigned char*>(image_.data() + cursor_);
  RecordHeader head;
  // Header lies (including a zero or over-cap length) are bad, not torn: a
  // kill -9 can cut a record short but cannot rewrite its header.
  if (const RecordError e = check_header(kWalRecord, h, max_payload_, head);
      e != RecordError::kNone) {
    return stop_at(WalStop::kBad, to_string(e));
  }
  if (remain - kRecordHeaderBytes < head.len) {
    return stop_at(WalStop::kTorn, "torn-payload");
  }
  const std::string_view payload =
      image_.substr(cursor_ + kRecordHeaderBytes, head.len);
  if (const RecordError e = check_payload(h, payload);
      e != RecordError::kNone) {
    return stop_at(WalStop::kBad, to_string(e));
  }
  cursor_ += kRecordHeaderBytes + head.len;
  ++records_;
  return WalRecord{head.seq, static_cast<WalRecordType>(head.type),
                   std::string(payload)};
}

// --- snapshot ----------------------------------------------------------------

std::string serialize_serve_state(
    const std::map<std::uint64_t, Session>& sessions, const Aggregate& agg,
    std::uint64_t last_lsn) {
  std::string out;
  out += kSnapshotMagic;
  out += ' ';
  out += std::to_string(kSnapshotVersion);
  out += '\n';
  out += "lsn " + std::to_string(last_lsn) + '\n';
  out += "sessions " + std::to_string(sessions.size()) + '\n';
  for (const auto& [id, s] : sessions) {
    out += "session " + std::to_string(id) + " threads " +
           std::to_string(s.threads) + " state " + to_string(s.state) +
           " merged " + std::to_string(s.epochs_merged) + " deduped " +
           std::to_string(s.epochs_deduped) + " seen " +
           std::to_string(s.seen.size()) + " reason ";
    // The drop reason is free text but single-line by construction; squash
    // newlines defensively like epoch_io does for labels.
    std::string clean = s.drop_reason.substr(0, 256);
    for (char& ch : clean) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    out += clean;
    out += '\n';
    int col = 0;
    for (const std::uint64_t idx : s.seen) {
      out += std::to_string(idx);
      out.push_back(++col % 16 == 0 ? '\n' : ' ');
    }
    if (col % 16 != 0) out += '\n';
  }
  agg.serialize(out);
  return support::with_crc_trailer(std::move(out));
}

void restore_serve_state(std::string_view text,
                         std::map<std::uint64_t, Session>& sessions,
                         Aggregate& agg, std::uint64_t& last_lsn,
                         support::MemoryTracker* tracker) {
  if (text.size() > kMaxSnapshotBytes) {
    throw std::runtime_error("serve-snapshot: file too large");
  }
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/true, "serve-snapshot");
  support::TokenScanner sc(payload, "serve-snapshot");
  if (sc.next_token() != kSnapshotMagic) sc.fail("bad magic");
  const int version = sc.next_uint<int>("version");
  if (version != kSnapshotVersion) {
    sc.fail("unsupported version " + std::to_string(version));
  }
  if (sc.next_token() != "lsn") sc.fail("expected 'lsn'");
  last_lsn = sc.next_uint<std::uint64_t>("lsn");
  if (sc.next_token() != "sessions") sc.fail("expected 'sessions'");
  const std::uint64_t count =
      sc.next_uint_capped<std::uint64_t>("session count", kMaxSessions);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (sc.next_token() != "session") sc.fail("expected 'session'");
    Session s;
    s.id = sc.next_uint<std::uint64_t>("session id");
    if (s.id == 0) sc.fail("session id must be nonzero");
    if (sc.next_token() != "threads") sc.fail("expected 'threads'");
    s.threads = sc.next_uint_capped<int>("session threads", 4096);
    if (s.threads < 1) sc.fail("session threads must be >= 1");
    if (sc.next_token() != "state") sc.fail("expected 'state'");
    s.state = session_state_from_string(sc.next_token());
    if (sc.next_token() != "merged") sc.fail("expected 'merged'");
    s.epochs_merged = sc.next_uint<std::uint64_t>("merged count");
    if (sc.next_token() != "deduped") sc.fail("expected 'deduped'");
    s.epochs_deduped = sc.next_uint<std::uint64_t>("deduped count");
    if (sc.next_token() != "seen") sc.fail("expected 'seen'");
    const std::uint64_t seen =
        sc.next_uint_capped<std::uint64_t>("seen count", kMaxSeen);
    if (sc.next_token() != "reason") sc.fail("expected 'reason'");
    s.drop_reason = std::string(sc.rest_of_line());
    s.seen.reserve(seen);
    for (std::uint64_t k = 0; k < seen; ++k) {
      s.seen.insert(sc.next_uint<std::uint64_t>("seen index"));
    }
    if (s.seen.size() != seen) sc.fail("duplicate seen indices");
    s.charged = kSessionBaseCost + seen * kSeenEntryCost;
    if (tracker != nullptr) tracker->add(s.charged);
    if (!sessions.emplace(s.id, std::move(s)).second) {
      sc.fail("duplicate session id");
    }
  }
  agg.restore(sc);
  if (!sc.at_end()) sc.fail("trailing data after aggregate");
}

// --- journal -----------------------------------------------------------------

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  stats_.policy_rung = static_cast<int>(options_.policy);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Journal::wal_path() const { return options_.dir + "/wal.log"; }

std::string Journal::snapshot_path() const {
  return options_.dir + "/snapshot.commscope";
}

bool Journal::recover(std::string& snapshot, std::vector<WalRecord>& tail,
                      std::string& error) {
  ctl::ScopedSpan span("wal.recover", ctl::SpanCat::kWal);
  // A tmp file is a compaction the crash interrupted: the rename never
  // happened, so the previous snapshot (if any) is still authoritative.
  ::unlink((snapshot_path() + ".tmp").c_str());

  struct stat st{};
  if (::stat(snapshot_path().c_str(), &st) == 0) {
    std::ifstream in(snapshot_path(), std::ios::binary);
    if (!in) {
      error = "journal: cannot read " + snapshot_path();
      return false;
    }
    try {
      snapshot = support::slurp_stream(in, kMaxSnapshotBytes, "serve-snapshot");
    } catch (const std::runtime_error& e) {
      error = std::string("journal: ") + e.what();
      return false;
    }
    stats_.recovered_snapshot = true;
    stats_.snapshot_bytes = snapshot.size();
  }

  if (::stat(wal_path().c_str(), &st) == 0) {
    std::ifstream in(wal_path(), std::ios::binary);
    if (!in) {
      error = "journal: cannot read " + wal_path();
      return false;
    }
    std::string image;
    try {
      image = support::slurp_stream(in, kMaxWalBytes, "serve-wal");
    } catch (const std::runtime_error& e) {
      error = std::string("journal: ") + e.what();
      return false;
    }
    // The recovery image is real memory the overload ladder must see;
    // charged while the replay holds it, discharged when it goes away.
    if (options_.tracker != nullptr) options_.tracker->add(image.size());
    stats_.wal_bytes_scanned = image.size();
    WalReader reader(image, options_.max_payload);
    while (auto r = reader.next()) {
      tail.push_back(std::move(*r));
    }
    stats_.replay_records = reader.records();
    if (reader.stop() != WalStop::kClean) {
      // Torn or damaged tail: recover the validated prefix, by design. The
      // damage is quarantined because the post-recovery compaction seals
      // the prefix into a snapshot and truncates this file.
      stats_.torn_tail = true;
      stats_.torn_reason = reader.stop_reason();
    }
    if (options_.tracker != nullptr) options_.tracker->sub(image.size());
  }
  for (const WalRecord& r : tail) {
    if (r.lsn > lsn_) lsn_ = r.lsn;
  }
  return true;
}

void Journal::discard_state() noexcept {
  ::unlink(wal_path().c_str());
  ::unlink(snapshot_path().c_str());
  ::unlink((snapshot_path() + ".tmp").c_str());
}

bool Journal::open(std::string& error) {
  if (::mkdir(options_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
    error = "journal: mkdir " + options_.dir + ": " + std::strerror(errno);
    return false;
  }
  fd_ = ::open(wal_path().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    error = "journal: open " + wal_path() + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

bool Journal::write_all(int fd, std::string_view bytes) noexcept {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

FsyncPolicy Journal::effective_policy() const noexcept {
  // The configured policy is a floor; memory pressure and sustained fsync
  // latency each push the effective rung further down the ladder.
  int rung = static_cast<int>(options_.policy);
  if (pressure_rung_ == 1 && rung < static_cast<int>(FsyncPolicy::kPerN)) {
    rung = static_cast<int>(FsyncPolicy::kPerN);
  } else if (pressure_rung_ >= 2) {
    rung = static_cast<int>(FsyncPolicy::kOnCompaction);
  }
  if (latency_rung_ > rung) rung = latency_rung_;
  if (rung > static_cast<int>(FsyncPolicy::kOnCompaction)) {
    rung = static_cast<int>(FsyncPolicy::kOnCompaction);
  }
  return static_cast<FsyncPolicy>(rung);
}

void Journal::update_rung() noexcept {
  const int want = static_cast<int>(effective_policy());
  if (want != stats_.policy_rung) {
    ctl::Tracer::instant(
        want > stats_.policy_rung ? "serve.wal.degrade" : "serve.wal.recover",
        ctl::SpanCat::kWal);
    ++stats_.degrade_transitions;
    stats_.policy_rung = want;
  }
}

void Journal::set_pressure(int rung) noexcept {
  pressure_rung_ = rung;
  update_rung();
}

void Journal::note_fsync_latency(std::uint64_t micros) noexcept {
  ctl::histogram("serve.wal.fsync_us").record(micros);
  if (micros >= kSlowFsyncMicros) {
    consecutive_fast_ = 0;
    if (++consecutive_slow_ >= kSlowFsyncStreak &&
        latency_rung_ < static_cast<int>(FsyncPolicy::kOnCompaction)) {
      ++latency_rung_;
      consecutive_slow_ = 0;
    }
  } else {
    consecutive_slow_ = 0;
    if (++consecutive_fast_ >= kFastFsyncStreak && latency_rung_ > 0) {
      --latency_rung_;
      consecutive_fast_ = 0;
    }
  }
  update_rung();
}

void Journal::fail(const char* what) noexcept {
  (void)what;
  ++stats_.write_errors;
  stats_.failed = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Journal::run_barrier() noexcept {
  const FsyncPolicy p = effective_policy();
  if (p == FsyncPolicy::kOnCompaction) return true;
  if (p == FsyncPolicy::kPerN &&
      since_fsync_ < std::max<std::uint32_t>(options_.fsync_every, 1)) {
    return true;
  }
  ++fsyncs_seen_;
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  int rc;
  if (plan != nullptr && plan->wal_fsync_fail_at != 0 &&
      fsyncs_seen_ == plan->wal_fsync_fail_at) {
    rc = -1;  // injected fsync failure (full disk, dying device)
  } else {
    rc = ::fdatasync(fd_);
  }
  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (rc != 0) {
    // A failed barrier is a durability loss, not a data loss: the bytes are
    // written, the page cache survives kill -9, and the policy degrades one
    // rung instead of taking the daemon down.
    ++stats_.fsync_failures;
    if (latency_rung_ < static_cast<int>(FsyncPolicy::kOnCompaction)) {
      ++latency_rung_;
      update_rung();
    }
    return false;
  }
  ++stats_.fsyncs;
  since_fsync_ = 0;
  note_fsync_latency(micros);
  return true;
}

bool Journal::append(WalRecordType type, std::string_view payload,
                     bool barrier) {
  return append(type, {}, payload, barrier);
}

bool Journal::append(WalRecordType type, std::string_view prefix,
                     std::string_view payload, bool barrier) {
  if (stats_.failed || fd_ < 0) return false;
  ++appends_seen_;
  // Encode into the reusable scratch buffer: the hot ingest path appends
  // one record per epochs frame, so steady-state this is a single memcpy of
  // the frame payload with zero allocations.
  std::string& record = scratch_;
  record.clear();
  encode_record(record, kWalRecord, static_cast<std::uint8_t>(type), ++lsn_,
                prefix, payload);
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  if (plan != nullptr && plan->wal_torn_tail_at != 0 &&
      appends_seen_ == plan->wal_torn_tail_at) {
    // Injected kill -9 mid-record-write: half the record reaches the log,
    // then the process vanishes. No ack was sent, so recovery + client
    // redelivery must reproduce the exact no-crash state.
    (void)write_all(fd_, std::string_view(record).substr(0, record.size() / 2));
    die_like_kill_nine();
  }
  if (plan != nullptr && plan->wal_write_short_at != 0 &&
      appends_seen_ == plan->wal_write_short_at) {
    // Injected short write (ENOSPC-shaped): the journal gives up durably
    // but the daemon keeps serving; the torn record on disk is what the
    // next recovery must tolerate.
    (void)write_all(fd_, std::string_view(record).substr(0, record.size() / 2));
    fail("injected short write");
    return false;
  }
  if (!write_all(fd_, record)) {
    fail("write");
    return false;
  }
  ++stats_.records;
  stats_.bytes += record.size();
  ++since_fsync_;
  ++since_compact_;
  dirty_ = true;
  if (barrier) return run_barrier();
  return true;
}

bool Journal::compact(std::string_view state) {
  if (fd_ < 0 && !stats_.failed) return false;
  ctl::ScopedSpan span("wal.compact", ctl::SpanCat::kWal);
  ++compactions_seen_;
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  const std::string tmp = snapshot_path() + ".tmp";
  const int sfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (sfd < 0) return false;
  if (plan != nullptr && plan->snapshot_crash_at != 0 &&
      compactions_seen_ == plan->snapshot_crash_at) {
    // Injected kill -9 mid-snapshot: a partial tmp file is left behind; the
    // previous snapshot and the full WAL remain authoritative.
    (void)write_all(sfd, state.substr(0, state.size() / 2));
    die_like_kill_nine();
  }
  if (!write_all(sfd, state) || ::fsync(sfd) != 0) {
    ::close(sfd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(sfd);
  if (::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename and the truncate durable: sync the directory, then cut
  // the WAL back to empty — every journaled record is now inside the
  // snapshot, so replay starts from its LSN.
  const int dfd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  if (fd_ >= 0 && ::ftruncate(fd_, 0) != 0) {
    fail("ftruncate");
    return false;
  }
  ++stats_.compactions;
  since_compact_ = 0;
  since_fsync_ = 0;
  dirty_ = false;
  return true;
}

bool Journal::should_compact() const noexcept {
  return options_.compact_every != 0 &&
         since_compact_ >= options_.compact_every;
}

}  // namespace commscope::serve
