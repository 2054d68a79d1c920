// A minimal blocking HTTP/1.1 client for loopback: one connection per
// request (the listener closes after each response), with the client-side
// phases timed so the wire's share of latency can be attributed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "bench_util.h"

namespace usaasbench {

struct WireTiming {
  Clock::time_point start;      ///< Before socket().
  Clock::time_point connected;  ///< connect() returned.
  Clock::time_point sent;       ///< Whole request written.
  Clock::time_point first_byte; ///< First response byte read.
  Clock::time_point done;       ///< Peer closed after the response.
};

struct WireResponse {
  int status{0};  ///< 0 = transport failure (no parsable status line).
  std::string body;
  WireTiming timing;
};

/// Sends `request` to 127.0.0.1:`port` and reads until the peer closes.
/// The socket is closed with a zero linger once the server has closed its
/// side, so no TIME_WAIT entries pile up over a long open-loop run.
[[nodiscard]] WireResponse http_exchange(std::uint16_t port,
                                         std::string_view request);

/// Looks up a top-level numeric field of a flat JSON object (the /query
/// answer); nullopt when absent or not a number.
[[nodiscard]] std::optional<double> json_number(std::string_view body,
                                                std::string_view key);

}  // namespace usaasbench
