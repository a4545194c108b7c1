#include "serve/frame.hpp"

#include <algorithm>
#include <cstring>

namespace commscope::serve {

const char* to_string(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kEpochs: return "epochs";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kBye: return "bye";
    case FrameType::kScrape: return "scrape";
    case FrameType::kScrapeReply: return "scrape-reply";
    case FrameType::kAck: return "ack";
  }
  return "?";
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  encode_record(out, kWireRecord, static_cast<std::uint8_t>(type), 0, {},
                payload);
  return out;
}

void FrameDecoder::poison(RecordError e) {
  err_ = e;
  hdr_have_ = 0;
  payload_.clear();
  payload_.shrink_to_fit();
}

bool FrameDecoder::feed(const char* data, std::size_t n) {
  if (poisoned()) return false;
  std::size_t i = 0;
  while (i < n) {
    if (hdr_have_ < kRecordHeaderBytes) {
      const std::size_t take =
          std::min(n - i, kRecordHeaderBytes - hdr_have_);
      std::memcpy(hdr_ + hdr_have_, data + i, take);
      hdr_have_ += take;
      i += take;
      if (hdr_have_ < kRecordHeaderBytes) break;
      // Length-prefix lies are refused here, before a single payload byte
      // is buffered, so a hostile header never drives a large allocation.
      if (const RecordError e =
              check_header(kWireRecord, hdr_, max_payload_, head_);
          e != RecordError::kNone) {
        poison(e);
        return false;
      }
      payload_.reserve(head_.len);
    }
    const std::size_t take =
        std::min(n - i, static_cast<std::size_t>(head_.len) - payload_.size());
    payload_.append(data + i, take);
    i += take;
    if (payload_.size() < head_.len) break;
    if (const RecordError e = check_payload(hdr_, payload_);
        e != RecordError::kNone) {
      poison(e);
      return false;
    }
    ready_.push_back(Frame{static_cast<FrameType>(head_.type),
                           std::move(payload_)});
    payload_ = std::string();
    hdr_have_ = 0;
  }
  return true;
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace commscope::serve
