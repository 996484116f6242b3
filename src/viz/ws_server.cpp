#include "viz/ws_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "viz/websocket.hpp"

namespace ruru {

namespace {

/// Reads until "\r\n\r\n", `max` bytes or a one-second budget;
/// returns the header block.  Each server-side read also times out
/// (PushServer), which stops a peer that sends nothing; the budget stops
/// one that trickles a byte per read timeout.
Result<std::string> read_http_headers(int fd, std::size_t max = 8192) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::string buf;
  char chunk[512];
  while (buf.size() < max) {
    if (std::chrono::steady_clock::now() >= deadline) return make_error("ws: handshake timed out");
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return make_error("ws: connection closed or timed out during handshake");
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.find("\r\n\r\n") != std::string::npos) return buf;
  }
  return make_error("ws: oversized handshake request");
}

/// Case-insensitive header lookup in a raw HTTP block.
std::string find_header(const std::string& block, std::string_view name) {
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
  };
  const std::string haystack = lower(block);
  const std::string needle = lower(std::string(name)) + ":";
  const std::size_t pos = haystack.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + needle.size();
  const std::size_t end = block.find("\r\n", start);
  std::string value = block.substr(start, end - start);
  const std::size_t first = value.find_first_not_of(' ');
  const std::size_t last = value.find_last_not_of(' ');
  if (first == std::string::npos) return {};
  return value.substr(first, last - first + 1);
}

/// The admission hook: reads the HTTP request, validates the upgrade,
/// replies 101 (or 400).
bool perform_upgrade(int fd) {
  auto request = read_http_headers(fd);
  if (!request) return false;
  const std::string& req = request.value();
  if (req.rfind("GET ", 0) != 0) return false;
  const std::string key = find_header(req, "Sec-WebSocket-Key");
  const std::string upgrade = find_header(req, "Upgrade");
  if (key.empty() || upgrade.find("websocket") == std::string::npos) {
    const char* bad = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
    send_all(fd, bad, std::strlen(bad));
    return false;
  }
  const std::string response = "HTTP/1.1 101 Switching Protocols\r\n"
                               "Upgrade: websocket\r\n"
                               "Connection: Upgrade\r\n"
                               "Sec-WebSocket-Accept: " +
                               websocket_accept_key(key) + "\r\n\r\n";
  return send_all(fd, response.data(), response.size());
}

}  // namespace

WsServer::WsServer() : PushServer(perform_upgrade) {}

std::size_t WsServer::broadcast_text(std::string_view payload) {
  return broadcast(ws_encode_text(payload));
}

Result<int> ws_client_connect(const std::string& host, std::uint16_t port,
                              const std::string& key) {
  auto connected = tcp_connect(host, port);
  if (!connected) return make_error("ws-client: " + connected.error());
  const int fd = connected.value();
  const std::string request = "GET /live HTTP/1.1\r\n"
                              "Host: " + host + "\r\n"
                              "Upgrade: websocket\r\n"
                              "Connection: Upgrade\r\n"
                              "Sec-WebSocket-Key: " + key + "\r\n"
                              "Sec-WebSocket-Version: 13\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    return make_error("ws-client: handshake send failed");
  }
  auto response = read_http_headers(fd);
  if (!response) {
    ::close(fd);
    return make_error(response.error());
  }
  const std::string expected = websocket_accept_key(key);
  if (response.value().find("101") == std::string::npos ||
      response.value().find(expected) == std::string::npos) {
    ::close(fd);
    return make_error("ws-client: upgrade rejected");
  }
  return fd;
}

Result<std::string> ws_client_recv_text(int fd, std::vector<std::uint8_t>& carry) {
  std::uint8_t chunk[4096];
  while (carry.size() < (1u << 20)) {
    if (auto frame = ws_decode_frame(carry)) {
      std::string payload(frame->payload.begin(), frame->payload.end());
      carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(frame->wire_size));
      return payload;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return make_error("ws-client: connection closed");
    }
    carry.insert(carry.end(), chunk, chunk + n);
  }
  return make_error("ws-client: frame too large");
}

}  // namespace ruru
