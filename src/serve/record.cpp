#include "serve/record.hpp"

#include "support/hash.hpp"

namespace commscope::serve {

namespace {

void store_le(unsigned char* p, std::uint64_t v, int bytes) noexcept {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

std::uint64_t load_le(const unsigned char* p, int bytes) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// The CRC seed: header bytes 4..15 (type, reserved, seq).
std::uint32_t header_crc(const unsigned char* h) noexcept {
  return support::crc32(h + kRecordTypeAt, kRecordLenAt - kRecordTypeAt);
}

}  // namespace

const char* to_string(RecordError e) noexcept {
  switch (e) {
    case RecordError::kNone: return "none";
    case RecordError::kBadMagic: return "bad-magic";
    case RecordError::kBadType: return "bad-type";
    case RecordError::kOversize: return "oversize";
    case RecordError::kEmptyPayload: return "empty-payload";
    case RecordError::kBadCrc: return "bad-crc";
  }
  return "?";
}

void encode_record(std::string& out, const RecordKind& kind,
                   std::uint8_t type, std::uint64_t seq,
                   std::string_view prefix, std::string_view payload) {
  const std::size_t len = prefix.size() + payload.size();
  unsigned char h[kRecordHeaderBytes] = {};
  store_le(h, kind.magic, 4);
  h[kRecordTypeAt] = type;
  store_le(h + kRecordSeqAt, seq, 8);
  store_le(h + kRecordLenAt, len, 4);
  store_le(h + kRecordCrcAt,
           support::crc32(payload, support::crc32(prefix, header_crc(h))), 4);
  out.reserve(out.size() + kRecordHeaderBytes + len);
  out.append(reinterpret_cast<const char*>(h), kRecordHeaderBytes);
  out.append(prefix);
  out.append(payload);
}

RecordError check_header(const RecordKind& kind, const unsigned char* h,
                         std::uint32_t max_payload,
                         RecordHeader& out) noexcept {
  if (load_le(h, 4) != kind.magic) return RecordError::kBadMagic;
  const std::uint8_t type = h[kRecordTypeAt];
  if (type == 0 || type > kind.max_type ||
      load_le(h + kRecordTypeAt + 1, 3) != 0) {
    return RecordError::kBadType;
  }
  const auto len = static_cast<std::uint32_t>(load_le(h + kRecordLenAt, 4));
  if (len > max_payload) return RecordError::kOversize;
  if (len == 0 && (kind.empty_ok_mask & (1u << type)) == 0) {
    return RecordError::kEmptyPayload;
  }
  out.type = type;
  out.seq = load_le(h + kRecordSeqAt, 8);
  out.len = len;
  return RecordError::kNone;
}

RecordError check_payload(const unsigned char* h,
                          std::string_view payload) noexcept {
  return support::crc32(payload, header_crc(h)) ==
                 load_le(h + kRecordCrcAt, 4)
             ? RecordError::kNone
             : RecordError::kBadCrc;
}

}  // namespace commscope::serve
