// Cross-process trace-context carriage for the serve wire protocol.
//
// The frame header (serve/record.hpp) is deliberately rigid — its reserved
// bytes MUST be zero and sit under the CRC, and an unknown type permanently
// poisons the decoder — so a context id cannot ride there without a new
// record magic that every peer would refuse. Instead it rides the two
// payload surfaces that were *specified loose* from day one:
//
//   * hello trailer:  "commscope-hello 1 session <id> threads <n>
//                      ctx <hex> tns <ns>"
//     The daemon's hello parser reads exactly greeting/version/session/
//     threads and ignores trailing tokens, so a pre-context daemon accepts
//     this hello unchanged. `tns` is the client's trace-clock reading at the
//     moment the hello was built — the handshake-time sample `commscope
//     trace --merge` uses to estimate the clock offset between the two
//     processes (the hello crosses a local unix socket, so send≈receive).
//
//   * ack echo:       "<n> accepted ctx <hex>"
//     The shipper's ack handling never parsed the payload, so a pre-context
//     client ignores the echo. The echo doubles as version negotiation: a
//     client that sees no echo knows it is talking to a pre-context daemon
//     and counts `ship.ctx.unsupported` instead of failing anything.
//
// A context id is 64 bits, nonzero, rendered as bare lower-case hex (no 0x).
#pragma once

#include <charconv>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/rng.hpp"

namespace commscope::serve {

/// Bare lower-case hex (no 0x, no leading zeros) — the wire rendering of a
/// context id, identical to the tracer's `args.ctx` string.
[[nodiscard]] inline std::string ctx_to_hex(std::uint64_t ctx) {
  char buf[17];
  int i = 16;
  buf[i] = '\0';
  do {
    buf[--i] = "0123456789abcdef"[ctx & 0xf];
    ctx >>= 4;
  } while (ctx != 0);
  return std::string(buf + i);
}

/// Parses a bare-hex context token; 0 (never a valid id) on malformed input.
[[nodiscard]] inline std::uint64_t ctx_from_hex(std::string_view tok) noexcept {
  if (tok.empty() || tok.size() > 16) return 0;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v, 16);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return 0;
  return v;
}

/// Mints a fresh nonzero context id: SplitMix64 over the session id, the
/// caller's seed and the monotonic clock, so concurrent clients sharing a
/// seed still get distinct ids.
[[nodiscard]] inline std::uint64_t mint_ctx(std::uint64_t session_id,
                                            std::uint64_t seed) noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  support::SplitMix64 g(session_id ^ (seed * 0x9e3779b97f4a7c15ULL) ^
                        static_cast<std::uint64_t>(now.count()));
  const std::uint64_t ctx = g.next();
  return ctx == 0 ? 1 : ctx;
}

}  // namespace commscope::serve
