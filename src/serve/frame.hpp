// Frames for the `commscope serve` wire protocol: the wire's row of the
// shared record codec (serve/record.hpp) — magic "CSF2", seq 0 — plus an
// incremental decoder for the socket.
//
// Payloads are the repo's existing hostile-hardened text formats — an epoch
// frame carries a `commscope-epochs` document (core/epoch_io), a scrape
// reply carries a `# commscope-metrics v1` snapshot — so the daemon reuses
// the same capped, CRC-checked readers the file loaders already trust.
//
// The decoder treats the stream as hostile: the codec validates each header
// the moment its bytes arrive (bad magic, unknown type, length-prefix lies
// all poison the decoder *before* any payload allocation), the payload
// buffer reserves exactly the declared length, and a CRC mismatch poisons on
// completion. A poisoned decoder never yields another frame; the server
// maps the poison reason to a per-session drop with provenance; a peer
// still sending 16-byte CSF1 headers is refused as bad-magic.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "serve/record.hpp"

namespace commscope::serve {

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< "commscope-hello 1 session <id> threads <n>"
  kEpochs = 2,      ///< core/epoch_io text document
  kHeartbeat = 3,   ///< empty; refreshes the session's reap deadline
  kBye = 4,         ///< empty; graceful session close (contribution sealed)
  kScrape = 5,      ///< metrics snapshot request; empty payload = v1 text,
                    ///< optional "prometheus" payload selects the Prometheus
                    ///< exposition format (pre-exporter daemons ignore it)
  kScrapeReply = 6, ///< "# commscope-metrics v1" text snapshot
  kAck = 7,         ///< "<n> accepted"; server ack for an epochs frame.
                    ///< Clients only mark epochs shipped once acked, so an
                    ///< accept that was closed unread (bytes buffered by the
                    ///< kernel, discarded by the daemon) is retried, never
                    ///< silently lost. Dedupe makes the retry exactly-once.
};

[[nodiscard]] const char* to_string(FrameType t) noexcept;

/// The wire's row in the record codec. Heartbeat, bye and scrape carry no
/// payload; a scrape reply may be empty (a daemon built without telemetry
/// has no metrics to report).
inline constexpr RecordKind kWireRecord{
    0x32465343u,  // "CSF2" LE
    static_cast<std::uint8_t>(FrameType::kAck),
    type_mask(FrameType::kHeartbeat, FrameType::kBye, FrameType::kScrape,
              FrameType::kScrapeReply)};

/// Default payload ceiling. A client that declares more is lying or
/// misbehaving — either way the session is dropped before allocation.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// Serializes one frame (header + payload) ready for the socket.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// Incremental frame reassembler. feed() accepts arbitrary byte chunks
/// (short reads, concatenated frames); next() pops completed frames in
/// order. Any protocol violation poisons the decoder permanently — callers
/// drop the session, they never resynchronize a hostile stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Consumes `n` bytes. Returns false (and consumes nothing further) once
  /// the decoder is poisoned.
  bool feed(const char* data, std::size_t n);

  /// Next completed frame, oldest first.
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool poisoned() const noexcept {
    return err_ != RecordError::kNone;
  }
  [[nodiscard]] RecordError error() const noexcept { return err_; }

  /// True when a frame is partially assembled — EOF here means the peer
  /// died mid-frame (a torn frame, counted by the server).
  [[nodiscard]] bool mid_frame() const noexcept {
    return hdr_have_ > 0 || !payload_.empty();
  }

  /// Bytes currently buffered toward the in-flight frame (queue-bound
  /// accounting; completed-but-unpopped frames are charged separately).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return hdr_have_ + payload_.size();
  }
  /// Capacity reserved for the in-flight payload — the fuzz suite asserts
  /// this never exceeds the declared cap, whatever the header claims.
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return payload_.capacity();
  }

 private:
  void poison(RecordError e);

  std::uint32_t max_payload_;
  unsigned char hdr_[kRecordHeaderBytes] = {};
  std::size_t hdr_have_ = 0;  ///< == kRecordHeaderBytes: reading payload
  RecordHeader head_;
  std::string payload_;
  std::deque<Frame> ready_;
  RecordError err_ = RecordError::kNone;
};

}  // namespace commscope::serve
