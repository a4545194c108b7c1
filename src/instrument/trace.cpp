#include "instrument/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "support/textio.hpp"

namespace commscope::instrument {

void TraceRecorder::on_thread_begin(int tid) {
  std::lock_guard lock(mu_);
  events_.push_back(TraceEvent{TraceEvent::Kind::kThreadBegin, 0,
                               static_cast<std::uint16_t>(tid), 0, 0});
}

void TraceRecorder::on_loop_enter(int tid, LoopId id) {
  std::lock_guard lock(mu_);
  events_.push_back(TraceEvent{TraceEvent::Kind::kLoopEnter, 0,
                               static_cast<std::uint16_t>(tid), 0,
                               static_cast<std::uint64_t>(id)});
}

void TraceRecorder::on_loop_exit(int tid) {
  std::lock_guard lock(mu_);
  events_.push_back(TraceEvent{TraceEvent::Kind::kLoopExit, 0,
                               static_cast<std::uint16_t>(tid), 0, 0});
}

void TraceRecorder::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                              AccessKind kind) {
  std::lock_guard lock(mu_);
  events_.push_back(TraceEvent{TraceEvent::Kind::kAccess,
                               static_cast<std::uint8_t>(kind),
                               static_cast<std::uint16_t>(tid), size,
                               static_cast<std::uint64_t>(addr)});
}

void replay(const std::vector<TraceEvent>& events, AccessSink& sink) {
  // Replay applies the recorded global interleaving on one thread. A batched
  // sink buffers per-tid, which would let a later thread's events overtake an
  // earlier thread's still-buffered ones; draining the outgoing tid at every
  // tid switch pins the apply order to the recorded order, so replay reports
  // are bit-identical at every batch size.
  int last_tid = -1;
  for (const TraceEvent& e : events) {
    if (static_cast<int>(e.tid) != last_tid) {
      if (last_tid >= 0) sink.on_drain(last_tid);
      last_tid = static_cast<int>(e.tid);
    }
    switch (e.kind) {
      case TraceEvent::Kind::kThreadBegin:
        sink.on_thread_begin(e.tid);
        break;
      case TraceEvent::Kind::kLoopEnter:
        sink.on_loop_enter(e.tid, static_cast<LoopId>(e.payload));
        break;
      case TraceEvent::Kind::kLoopExit:
        sink.on_loop_exit(e.tid);
        break;
      case TraceEvent::Kind::kAccess:
        sink.on_access(e.tid, static_cast<std::uintptr_t>(e.payload), e.size,
                       static_cast<AccessKind>(e.access));
        break;
    }
  }
  sink.finalize();
}

namespace {
constexpr const char* kMagic = "commscope-trace";
/// Versions 1 and 2 are text, one event per line (v2 adds the CRC trailer);
/// they are only read. Version 3, the one written, is this header line, the
/// event count line, the events as one block of 16-byte little-endian
/// records, the loop table and the CRC trailer over everything before it.
constexpr int kTextVersion = 2;
constexpr std::string_view kBlockHeader = "commscope-trace 3\n";
/// Hostile-input ceilings, enforced before any allocation sized by a
/// declared count. 2^26 16-byte events is a 1 GiB trace — far beyond any
/// dev/small-scale capture.
constexpr std::size_t kMaxEvents = 1u << 26;
constexpr std::size_t kMaxLoops = 1u << 20;
constexpr std::size_t kMaxFileBytes = 2048ull << 20;
/// Storage is reserved at most this many events ahead of the events parsed
/// or read so far, so a lying event count cannot allocate ahead of the data.
constexpr std::size_t kMaxReserve = 1u << 20;
/// Block IO moves 64 Ki events (1 MiB) at a time, so the bytes stay in cache
/// between the copy, the CRC fold and the kind/access check.
constexpr std::size_t kChunkEvents = 1u << 16;

// The v3 block is TraceEvent's own object representation on a
// little-endian host, which is what lets it move without per-field work.
static_assert(std::endian::native == std::endian::little,
              "trace v3 stores TraceEvent's little-endian layout verbatim");
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
              sizeof(TraceEvent) == 16 && offsetof(TraceEvent, access) == 1 &&
              offsetof(TraceEvent, tid) == 2 &&
              offsetof(TraceEvent, size) == 4 &&
              offsetof(TraceEvent, payload) == 8);

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace: " + what);
}

/// Reads through the next '\n' (kept), stopping early after `max` bytes or
/// at end of input.
std::string read_line(std::istream& is, std::size_t max) {
  std::string line;
  char c = 0;
  while (line.size() < max && is.get(c)) {
    line += c;
    if (c == '\n') break;
  }
  return line;
}

/// Rewrites each loop-enter payload from the file's UID to the LoopId this
/// process's registry assigned it.
void remap_loop_ids(std::vector<TraceEvent>& events,
                    const std::map<std::uint64_t, LoopId>& remap) {
  if (remap.empty()) return;
  for (TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kLoopEnter) continue;
    const auto it = remap.find(e.payload);
    if (it != remap.end()) e.payload = it->second;
  }
}

/// Versions 1 and 2: `text` is the whole file.
std::vector<TraceEvent> read_text_trace(const std::string& text) {
  // Version-1 traces predate the CRC trailer; version 2 requires one.
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/false, "trace");

  support::TokenScanner sc(payload, "trace");
  if (sc.next_token() != kMagic) sc.fail("bad magic");
  const int version = sc.next_uint<int>("version");
  if (version != 1 && version != kTextVersion) sc.fail("bad version");
  if (version >= 2 && payload.size() == text.size()) {
    sc.fail("missing crc trailer");
  }

  const auto count =
      sc.next_uint_capped<std::size_t>("event count", kMaxEvents);
  std::vector<TraceEvent> events;
  events.reserve(std::min(count, kMaxReserve));
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent e;
    const int kind = sc.next_uint_capped<int>("event kind", 3);
    const int access = sc.next_uint_capped<int>("access kind", 1);
    e.tid = sc.next_uint<std::uint16_t>("tid");
    e.size = sc.next_uint<std::uint32_t>("size");
    e.payload = sc.next_uint<std::uint64_t>("payload");
    e.kind = static_cast<TraceEvent::Kind>(kind);
    e.access = static_cast<std::uint8_t>(access);
    events.push_back(e);
  }

  // Optional loop-name table (absent in hand-built traces): re-declare each
  // loop locally and remap the events' UIDs.
  if (!sc.at_end()) {
    if (sc.next_token() != "loops") sc.fail("bad section");
    const auto nloops =
        sc.next_uint_capped<std::size_t>("loop count", kMaxLoops);
    std::map<std::uint64_t, LoopId> remap;
    for (std::size_t i = 0; i < nloops; ++i) {
      const auto uid = sc.next_uint<std::uint64_t>("loop uid");
      const std::string_view function = sc.next_token();
      const std::string_view name = sc.next_token();
      if (function.empty() || name.empty()) sc.fail("truncated loop table");
      remap[uid] = LoopRegistry::instance().declare(std::string(function),
                                                    std::string(name));
    }
    if (!sc.at_end()) sc.fail("trailing data after loop table");
    remap_loop_ids(events, remap);
  }
  return events;
}

/// Version 3, after its header line (whose CRC is `crc`): the events are
/// read straight into the returned vector, the CRC folded chunk by chunk.
std::vector<TraceEvent> read_event_block(std::istream& is, std::uint32_t crc) {
  const std::string count_line = read_line(is, 24);  // u64: <= 20 digits
  crc = support::crc32(count_line, crc);
  const std::string_view digits(count_line.data(),
                               count_line.empty() ? 0 : count_line.size() - 1);
  std::size_t count = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), count);
  if (digits.empty() || count_line.back() != '\n' || ec != std::errc{} ||
      end != digits.data() + digits.size()) {
    fail("invalid event count");
  }
  if (count > kMaxEvents) fail("event count out of range");

  std::vector<TraceEvent> events;
  events.reserve(std::min(count, kMaxReserve));
  while (events.size() < count) {
    const std::size_t have = events.size();
    const std::size_t n = std::min(kChunkEvents, count - have);
    if (events.capacity() < have + n) {
      events.reserve(std::min(count, have + kMaxReserve));
    }
    events.resize(have + n);
    char* bytes = reinterpret_cast<char*>(events.data() + have);
    const std::size_t len = n * sizeof(TraceEvent);
    if (!is.read(bytes, static_cast<std::streamsize>(len))) {
      fail("truncated event block");
    }
    crc = support::crc32(bytes, len, crc);
    bool bad = false;
    for (std::size_t i = have; i < have + n; ++i) {
      bad |= static_cast<std::uint8_t>(events[i].kind) > 3 ||
             events[i].access > 1;
    }
    if (bad) fail("invalid event kind or access kind");
  }

  // The rest is the loop table and the trailer, which must end the file.
  const std::string tail = support::slurp_stream(is, kMaxFileBytes, "trace");
  const std::size_t trailer_bytes = support::crc_trailer(0).size();
  if (tail.size() < trailer_bytes ||
      tail.compare(tail.size() - trailer_bytes, 6, "crc32 ") != 0) {
    fail("missing crc trailer (truncated file or trailing data)");
  }
  const std::string_view table(tail.data(), tail.size() - trailer_bytes);
  crc = support::crc32(table, crc);
  if (tail.compare(table.size(), trailer_bytes, support::crc_trailer(crc)) !=
      0) {
    fail("checksum mismatch (corrupt or truncated file)");
  }

  // Loop table: "loops N", then per loop "uid len function len name", each
  // name length-prefixed so any label round-trips. Loops are declared only
  // once the whole table has parsed.
  support::TokenScanner sc(table, "trace");
  if (sc.next_token() != "loops") sc.fail("missing loop table");
  const auto nloops = sc.next_uint_capped<std::size_t>("loop count", kMaxLoops);
  std::vector<std::pair<std::uint64_t, LoopInfo>> loops;
  for (std::size_t i = 0; i < nloops; ++i) {
    const auto uid = sc.next_uint<std::uint64_t>("loop uid");
    LoopInfo info;
    info.function = sc.next_bytes(sc.next_uint<std::size_t>("function length"),
                                  "loop table");
    info.name =
        sc.next_bytes(sc.next_uint<std::size_t>("name length"), "loop table");
    loops.emplace_back(uid, std::move(info));
  }
  if (!sc.at_end()) sc.fail("trailing data after loop table");
  std::map<std::uint64_t, LoopId> remap;
  for (auto& [uid, info] : loops) {
    remap[uid] = LoopRegistry::instance().declare(std::move(info.function),
                                                  std::move(info.name));
  }
  remap_loop_ids(events, remap);
  return events;
}

}  // namespace

void write_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  std::uint32_t crc = 0;
  const auto put = [&](const void* data, std::size_t len) {
    crc = support::crc32(data, len, crc);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  };
  const std::string header =
      std::string(kBlockHeader) + std::to_string(events.size()) + '\n';
  put(header.data(), header.size());
  for (std::size_t i = 0; i < events.size(); i += kChunkEvents) {
    put(events.data() + i,
        std::min(kChunkEvents, events.size() - i) * sizeof(TraceEvent));
  }
  // Loop-name table for the UIDs this trace references.
  std::map<std::uint64_t, LoopInfo> loops;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kLoopEnter && !loops.count(e.payload)) {
      loops[e.payload] =
          LoopRegistry::instance().info(static_cast<LoopId>(e.payload));
    }
  }
  std::string table = "loops " + std::to_string(loops.size()) + '\n';
  for (const auto& [uid, info] : loops) {
    table += std::to_string(uid);
    for (const std::string* s : {&info.function, &info.name}) {
      table += ' ';
      table += std::to_string(s->size());
      table += ' ';
      table += *s;
    }
    table += '\n';
  }
  put(table.data(), table.size());
  os << support::crc_trailer(crc);
}

std::vector<TraceEvent> read_trace(std::istream& is) {
  std::string head = read_line(is, kBlockHeader.size());
  if (head == kBlockHeader) {
    return read_event_block(is, support::crc32(head));
  }
  head += support::slurp_stream(is, kMaxFileBytes, "trace");
  return read_text_trace(head);
}

}  // namespace commscope::instrument
