#pragma once
// TCP transport for the bus (the "tcp://" flavour of the ZeroMQ role).
//
// Length-prefixed multi-frame messages over a stream socket:
//   u32 magic 'RRU1' | u32 frame_count | frame_count x (u32 len | bytes)
// all little-endian.  The server pushes every published message to every
// connected client; a client that cannot keep up (send buffer full for
// more than a 100 ms grace) is disconnected rather than allowed to
// backpressure the pipeline — ZeroMQ-PUB-like behaviour at the
// transport level.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "msg/message.hpp"
#include "util/result.hpp"

namespace ruru {

/// The push side, shared with the WebSocket feed (viz/ws_server), which
/// differs only in framing and admission: accepts loopback clients on a
/// background thread (TCP_NODELAY, 100 ms send timeout each) and sends
/// every broadcast to all of them.
class PushServer {
 public:
  /// Runs on the accept thread for each new connection before it joins
  /// the client list; false rejects it (the server closes `fd`).  Each
  /// read on `fd` times out after one second, so a peer that connects
  /// and never speaks cannot hold the accept thread or close().
  using Admit = std::function<bool(int fd)>;

  explicit PushServer(Admit admit = {}) : admit_(std::move(admit)) {}
  ~PushServer();
  PushServer(const PushServer&) = delete;
  PushServer& operator=(const PushServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  Status bind(std::uint16_t port);

  /// Port actually bound (after bind with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Sends `wire` to every client, dropping those whose send fails.
  /// Returns clients reached.
  std::size_t broadcast(std::span<const std::uint8_t> wire);

  [[nodiscard]] std::size_t client_count() const;
  /// Clients dropped by a failed send.
  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_.load(); }
  /// Connections admitted (every accepted one when there is no hook).
  [[nodiscard]] std::uint64_t admitted() const { return admitted_.load(); }
  /// Connections the admission hook refused.
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.load(); }

  void close();

 private:
  void accept_loop();

  Admit admit_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mu_;
  std::vector<int> clients_;  // guarded by mu_
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::thread accept_thread_;  // last: it uses every member above
};

/// Writes all of `data` to `fd`, retrying short writes and EINTR; false
/// on error, peer close or send timeout.
bool send_all(int fd, const void* data, std::size_t len);

/// Connects a TCP stream to `host` (dotted IPv4) : `port`; returns the fd.
Result<int> tcp_connect(const std::string& host, std::uint16_t port);

class TcpBusServer : public PushServer {
 public:
  /// Sends to all connected clients. Returns clients reached.
  std::size_t publish(const Message& message);
};

class TcpBusClient {
 public:
  static Result<TcpBusClient> connect(const std::string& host, std::uint16_t port);

  TcpBusClient(TcpBusClient&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  TcpBusClient& operator=(TcpBusClient&& o) noexcept;
  ~TcpBusClient();

  /// Blocking receive of one message; nullopt on EOF/error.
  std::optional<Message> recv();

  void close();

 private:
  explicit TcpBusClient(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace ruru
