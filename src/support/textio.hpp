// Shared helpers for CommScope's line-oriented text file formats (matrix,
// trace, checkpoint): bounded stream slurping, a whitespace token scanner
// with checked numeric conversion, and the common "crc32 <hex>" integrity
// trailer. Every loader in the tree treats its input as hostile — declared
// counts are capped before allocation, every number is parsed with
// std::from_chars, and corruption surfaces as std::runtime_error, never as a
// crash or garbage data.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/hash.hpp"

namespace commscope::support {

/// Reads the remainder of `is` into a string, throwing std::runtime_error
/// (prefixed with `who`) once the size exceeds `max_bytes` — hostile inputs
/// must not be able to buffer without bound.
inline std::string slurp_stream(std::istream& is, std::size_t max_bytes,
                                const char* who) {
  std::string text;
  char buf[1 << 16];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(is.gcount()));
    if (text.size() > max_bytes) {
      throw std::runtime_error(std::string(who) + ": file too large");
    }
    if (!is) break;
  }
  return text;
}

/// Whitespace-delimited token scanner with checked numeric conversion.
class TokenScanner {
 public:
  TokenScanner(std::string_view text, const char* who)
      : p_(text.data()), end_(p_ + text.size()), who_(who) {}

  [[nodiscard]] std::string_view next_token() {
    skip_space();
    const char* start = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// Next token without consuming it — for optional trailing fields that a
  /// newer writer may or may not have emitted (e.g. the per-epoch perf
  /// block). Returns empty at end of input.
  [[nodiscard]] std::string_view peek_token() {
    skip_space();
    const char* q = p_;
    while (q != end_ && !is_space(*q)) ++q;
    return {p_, static_cast<std::size_t>(q - p_)};
  }

  /// Next token parsed as an unsigned integer of type T (base 10); throws
  /// when missing, malformed, negative, or out of range for T.
  template <typename T>
  T next_uint(const char* what) {
    const std::string_view tok = next_token();
    T v{};
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v, 10);
    if (tok.empty() || ec != std::errc{} || ptr != tok.data() + tok.size()) {
      fail(std::string("invalid ") + what);
    }
    return v;
  }

  /// next_uint with an inclusive upper bound enforced before the caller can
  /// act on the value (e.g. allocate).
  template <typename T>
  T next_uint_capped(const char* what, T max_value) {
    const T v = next_uint<T>(what);
    if (v > max_value) fail(std::string(what) + " out of range");
    return v;
  }

  /// Consumes one whitespace separator, then returns the next `n` bytes
  /// verbatim — for length-prefixed fields, which may hold any byte,
  /// spaces and newlines included. Throws when fewer than `n` bytes remain.
  [[nodiscard]] std::string_view next_bytes(std::size_t n, const char* what) {
    if (p_ == end_ || !is_space(*p_) ||
        static_cast<std::size_t>(end_ - p_ - 1) < n) {
      fail(std::string("truncated ") + what);
    }
    const char* start = ++p_;
    p_ += n;
    return {start, n};
  }

  /// Skips spaces/tabs, then captures everything up to (not including) the
  /// next newline, with a trailing '\r' trimmed — for free-text fields like
  /// labels that may themselves contain spaces.
  [[nodiscard]] std::string_view rest_of_line() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
    const char* start = p_;
    while (p_ != end_ && *p_ != '\n') ++p_;
    const char* stop = p_;
    if (stop != start && stop[-1] == '\r') --stop;
    return {start, static_cast<std::size_t>(stop - start)};
  }

  [[nodiscard]] bool at_end() {
    skip_space();
    return p_ == end_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(who_) + ": " + what);
  }

 private:
  [[nodiscard]] static bool is_space(char c) noexcept {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  }
  void skip_space() noexcept {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
  const char* who_;
};

/// The "crc32 <hex>\n" trailer line for a payload whose CRC is `crc`.
inline std::string crc_trailer(std::uint32_t crc) {
  char line[24];
  std::snprintf(line, sizeof line, "crc32 %08x\n", crc);
  return line;
}

/// Appends the "crc32 <hex>" trailer line over `payload` to it, returning
/// the complete file image.
inline std::string with_crc_trailer(std::string payload) {
  payload += crc_trailer(crc32(payload));
  return payload;
}

/// Splits a trailing "crc32 <hex>" line off `text` and verifies it against
/// the preceding payload, which is returned. `require` controls whether a
/// missing trailer is an error (new formats) or accepted (legacy files).
/// Throws std::runtime_error (prefixed with `who`) on a malformed trailer or
/// checksum mismatch.
inline std::string_view verify_crc_trailer(std::string_view text, bool require,
                                           const char* who) {
  const std::size_t pos = text.rfind("crc32 ");
  if (pos == std::string_view::npos || (pos != 0 && text[pos - 1] != '\n')) {
    if (require) {
      throw std::runtime_error(std::string(who) + ": missing crc trailer");
    }
    return text;
  }
  TokenScanner trailer(text.substr(pos + 6), who);
  const std::string_view hex = trailer.next_token();
  std::uint32_t stored = 0;
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  if (hex.empty() || ec != std::errc{} || ptr != hex.data() + hex.size() ||
      !trailer.at_end()) {
    throw std::runtime_error(std::string(who) + ": malformed crc trailer");
  }
  const std::string_view payload = text.substr(0, pos);
  if (crc32(payload) != stored) {
    throw std::runtime_error(std::string(who) +
                             ": checksum mismatch (corrupt or truncated file)");
  }
  return payload;
}

}  // namespace commscope::support
