// Event-trace capture and replay.
//
// TraceRecorder is an AccessSink that captures the complete, globally
// ordered event stream (thread begins, loop enters/exits, accesses) of one
// profiled run; replay() feeds a stored trace into any other sink.
//
// This gives CommScope a capability the paper's methodology needs but
// multi-threaded execution denies: *identical* inputs for every profiler
// under comparison. A live run's event interleaving varies with scheduling,
// so two profilers watching two executions can legitimately disagree;
// replaying one recorded trace through the signature profiler, the exact
// baseline, shadow memory and the IPM log makes their outputs exactly
// comparable (used by the cross-profiler equality tests and available for
// offline experimentation via save/load).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "instrument/sink.hpp"

namespace commscope::instrument {

/// One recorded event.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kThreadBegin,
    kLoopEnter,
    kLoopExit,
    kAccess
  };
  Kind kind = Kind::kAccess;
  std::uint8_t access = 0;  ///< AccessKind when kind == kAccess
  std::uint16_t tid = 0;
  std::uint32_t size = 0;
  std::uint64_t payload = 0;  ///< address or LoopId
};

class TraceRecorder final : public AccessSink {
 public:
  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 AccessKind kind) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Bytes held by the recording (for capacity planning).
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return events_.size() * sizeof(TraceEvent);
  }

  void clear() { events_.clear(); }

 private:
  std::mutex mu_;  // recording serializes events into one global order
  std::vector<TraceEvent> events_;
};

/// Feeds a recorded trace into `sink` (serially, in recorded order) and
/// finalizes it.
void replay(const std::vector<TraceEvent>& events, AccessSink& sink);

/// Serializes a trace as format v3: the text lines "commscope-trace 3" and
/// the event count, then every event as one 16-byte little-endian record
/// (the TraceEvent layout: u8 kind, u8 access, u16 tid, u32 size,
/// u64 payload), then the loop-name table, then a "crc32 <hex>" trailer over
/// everything before it. The table holds every loop UID the trace
/// references, each name length-prefixed: UIDs are process-local registry
/// indices, so a trace replayed in another process (the CLI's `replay`
/// subcommand) would otherwise lose its region labels. Streams to `os` a
/// chunk at a time; open files with std::ios::binary.
void write_trace(std::ostream& os, const std::vector<TraceEvent>& events);

/// Parses a trace; throws std::runtime_error on malformed input. v3 events
/// are read straight into the returned vector, never more than 2^20 events
/// ahead of the bytes read, and a count above 2^26, a short block, a kind
/// above 3 or an access kind above 1, a CRC mismatch and trailing bytes are
/// all refused. The v1/v2 text formats still load. Loop UIDs are
/// re-declared in this process's LoopRegistry, only once the file has
/// verified, and the returned events' loop ids remapped accordingly, so
/// labels resolve correctly wherever the trace is replayed.
[[nodiscard]] std::vector<TraceEvent> read_trace(std::istream& is);

}  // namespace commscope::instrument
