#include "msg/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/byte_order.hpp"

namespace ruru {

namespace {

constexpr std::uint32_t kMagic = 0x31555252;  // "RRU1" little-endian

bool read_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint8_t> serialize(const Message& m) {
  std::size_t total = 8;
  for (const auto& f : m.frames) total += 4 + f.size();
  std::vector<std::uint8_t> buf(total);
  std::uint8_t* p = buf.data();
  store_le32(p, kMagic);
  store_le32(p + 4, static_cast<std::uint32_t>(m.frames.size()));
  p += 8;
  for (const auto& f : m.frames) {
    store_le32(p, static_cast<std::uint32_t>(f.size()));
    p += 4;
    std::memcpy(p, f.data(), f.size());
    p += f.size();
  }
  return buf;
}

}  // namespace

PushServer::~PushServer() { close(); }

Status PushServer::bind(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return make_error("push-server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return make_error("push-server: bind/listen failed: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void PushServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listen socket closed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Bound the stall a slow client can impose: after 100 ms of a full
    // send buffer the write fails and the client is dropped, so the
    // publisher never backpressures the pipeline for long.  Admission
    // reads are bounded too, or one silent peer would stop every later
    // connection from being accepted.
    timeval send_timeout{0, 100'000};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
    timeval recv_timeout{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout, sizeof recv_timeout);
    if (admit_ && !admit_(fd)) {
      rejected_.fetch_add(1);
      ::close(fd);
      continue;
    }
    std::lock_guard lock(mu_);
    clients_.push_back(fd);
    admitted_.fetch_add(1);
  }
}

std::size_t PushServer::broadcast(std::span<const std::uint8_t> wire) {
  std::lock_guard lock(mu_);
  std::size_t reached = 0;
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (send_all(*it, wire.data(), wire.size())) {
      ++reached;
      ++it;
    } else {
      ::close(*it);
      it = clients_.erase(it);
      disconnects_.fetch_add(1);
    }
  }
  return reached;
}

std::size_t PushServer::client_count() const {
  std::lock_guard lock(mu_);
  return clients_.size();
}

void PushServer::close() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard lock(mu_);
  for (const int fd : clients_) ::close(fd);
  clients_.clear();
  listen_fd_ = -1;
}

bool send_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

Result<int> tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error("tcp: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return make_error("tcp: bad address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return make_error("tcp: connect() failed: " + std::string(std::strerror(errno)));
  }
  return fd;
}

std::size_t TcpBusServer::publish(const Message& message) { return broadcast(serialize(message)); }

Result<TcpBusClient> TcpBusClient::connect(const std::string& host, std::uint16_t port) {
  auto fd = tcp_connect(host, port);
  if (!fd) return make_error(fd.error());
  return TcpBusClient(fd.value());
}

TcpBusClient& TcpBusClient::operator=(TcpBusClient&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

TcpBusClient::~TcpBusClient() { close(); }

void TcpBusClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Message> TcpBusClient::recv() {
  if (fd_ < 0) return std::nullopt;
  std::uint8_t hdr[8];
  if (!read_all(fd_, hdr, sizeof hdr)) return std::nullopt;
  if (load_le32(hdr) != kMagic) return std::nullopt;
  const std::uint32_t nframes = load_le32(hdr + 4);
  if (nframes > 64) return std::nullopt;  // sanity bound

  Message m;
  for (std::uint32_t i = 0; i < nframes; ++i) {
    std::uint8_t lenbuf[4];
    if (!read_all(fd_, lenbuf, 4)) return std::nullopt;
    const std::uint32_t len = load_le32(lenbuf);
    if (len > (1u << 24)) return std::nullopt;  // 16 MB frame cap
    std::vector<std::uint8_t> payload(len);
    if (len != 0 && !read_all(fd_, payload.data(), len)) return std::nullopt;
    m.add(Frame::adopt(std::move(payload)));
  }
  return m;
}

}  // namespace ruru
