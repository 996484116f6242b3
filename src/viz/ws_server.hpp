#pragma once
// Minimal WebSocket push server — the transport §2 uses to deliver
// enriched measurements "to the frontend (using WebSockets) that
// displays the results in real-time".
//
// Server-side only, push-only (the map never sends data back except
// pings): accepts TCP connections on loopback, performs the RFC 6455
// HTTP upgrade using websocket_accept_key(), then broadcast()s text
// frames to every upgraded client.  Accepting, bounded sends and
// dropping clients that stall or disconnect are the bus's PushServer
// (msg/tcp_transport); this file adds only the upgrade and the framing.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "msg/tcp_transport.hpp"
#include "util/result.hpp"

namespace ruru {

/// The bus's PushServer with WebSocket framing: each connection must
/// pass the upgrade (bounded by a handshake deadline) before it joins.
class WsServer : public PushServer {
 public:
  WsServer();

  /// Send one text frame to every upgraded client. Returns clients
  /// reached.
  std::size_t broadcast_text(std::string_view payload);

  [[nodiscard]] std::uint64_t upgrades() const { return admitted(); }
  [[nodiscard]] std::uint64_t rejected_handshakes() const { return rejected(); }
};

/// Client-side handshake helper for tests/tools: connects, sends the
/// upgrade request with `key`, verifies the accept header. Returns the
/// connected fd or an error.
Result<int> ws_client_connect(const std::string& host, std::uint16_t port,
                              const std::string& key = "dGhlIHNhbXBsZSBub25jZQ==");

/// Blocking read of one WebSocket frame's payload from `fd` (test
/// helper; assumes text frames < 1 MB).  `carry` holds bytes received
/// beyond the returned frame (TCP coalesces frames); pass the same
/// buffer to every call on one connection.
Result<std::string> ws_client_recv_text(int fd, std::vector<std::uint8_t>& carry);

}  // namespace ruru
