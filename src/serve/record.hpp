// The one CRC-framed record codec behind the `commscope serve` wire protocol
// (serve/frame) and the daemon's write-ahead log (serve/journal).
//
// A record is a fixed 24-byte little-endian header followed by the payload:
//
//   u32 magic        per record kind ("CSF2" wire, "CSJ1" WAL)
//   u8  type         1..kind.max_type
//   u8  reserved     must be 0
//   u16 reserved2    must be 0
//   u64 seq          WAL: the strictly increasing LSN; wire: 0
//   u32 payload_len  bytes following the header (<= the reader's cap)
//   u32 crc          CRC32 over header bytes 4..15, then the payload
//
// The CRC covers the type, reserved and seq fields as well as the payload,
// so a flipped bit in the record *metadata* fails validation exactly like
// payload damage — a bitflip can never turn an epochs record into some
// other type, or forge the LSN replay trusts.
//
// A record kind is one row of data (RecordKind): its magic, its highest
// valid type, and which types may carry an empty payload. The codec never
// branches on which caller it serves; both decoders run the same header
// validator the moment a header is complete — before any payload byte is
// buffered, so a hostile length prefix never drives an allocation — and the
// same CRC check once the payload is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace commscope::serve {

inline constexpr std::size_t kRecordHeaderBytes = 24;
/// Header field offsets, for code (and tests) that address fields by name.
inline constexpr std::size_t kRecordTypeAt = 4;
inline constexpr std::size_t kRecordSeqAt = 8;
inline constexpr std::size_t kRecordLenAt = 16;
inline constexpr std::size_t kRecordCrcAt = 20;

/// One record kind: the whole per-caller difference, as data.
struct RecordKind {
  std::uint32_t magic;
  std::uint8_t max_type;       ///< valid types are 1..max_type (< 32)
  std::uint32_t empty_ok_mask; ///< bit t set: type t may have no payload
};

/// Bit mask of the given record types, for RecordKind::empty_ok_mask.
template <typename... Type>
[[nodiscard]] constexpr std::uint32_t type_mask(Type... types) noexcept {
  return (0u | ... | (1u << static_cast<unsigned>(types)));
}

/// Why a record was refused (provenance for drop counters and WAL stops).
enum class RecordError : std::uint8_t {
  kNone,
  kBadMagic,      ///< header magic mismatch (garbage / desynced stream)
  kBadType,       ///< unknown type or nonzero reserved bytes
  kOversize,      ///< declared payload_len exceeds the reader's cap
  kEmptyPayload,  ///< len = 0 for a type that requires a payload
  kBadCrc,        ///< CRC mismatch over header tail + payload
};

[[nodiscard]] const char* to_string(RecordError e) noexcept;

/// The fields of a header that passed check_header().
struct RecordHeader {
  std::uint8_t type = 0;
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
};

/// Appends one record to `out`: the header, then `prefix` immediately
/// followed by `payload` as the record's payload.
void encode_record(std::string& out, const RecordKind& kind,
                   std::uint8_t type, std::uint64_t seq,
                   std::string_view prefix, std::string_view payload);

/// Validates the kRecordHeaderBytes at `h` against `kind` and the payload
/// cap — magic, type range, zero reserved bytes, length — and fills `out`
/// when it returns kNone.
[[nodiscard]] RecordError check_header(const RecordKind& kind,
                                       const unsigned char* h,
                                       std::uint32_t max_payload,
                                       RecordHeader& out) noexcept;

/// kBadCrc unless `payload` matches the CRC in the validated header `h`.
[[nodiscard]] RecordError check_payload(const unsigned char* h,
                                        std::string_view payload) noexcept;

}  // namespace commscope::serve
