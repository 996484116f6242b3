#include "viz/ws_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>

namespace ruru {
namespace {

void wait_for_clients(const WsServer& server, std::size_t n) {
  for (int i = 0; i < 1000 && server.client_count() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.client_count(), n);
}

TEST(WsServer, UpgradeHandshakeAndPush) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto fd = ws_client_connect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.error();
  wait_for_clients(server, 1);
  EXPECT_EQ(server.upgrades(), 1u);

  EXPECT_EQ(server.broadcast_text(R"({"type":"arc_frame"})"), 1u);
  std::vector<std::uint8_t> carry;
  const auto payload = ws_client_recv_text(fd.value(), carry);
  ASSERT_TRUE(payload.ok()) << payload.error();
  EXPECT_EQ(payload.value(), R"({"type":"arc_frame"})");
  ::close(fd.value());
  server.close();
}

TEST(WsServer, MultipleClientsAllReceive) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto a = ws_client_connect("127.0.0.1", server.port());
  auto b = ws_client_connect("127.0.0.1", server.port(), "AAAAAAAAAAAAAAAAAAAAAA==");
  ASSERT_TRUE(a.ok() && b.ok());
  wait_for_clients(server, 2);

  EXPECT_EQ(server.broadcast_text("frame1"), 2u);
  std::vector<std::uint8_t> carry_a, carry_b;
  EXPECT_EQ(ws_client_recv_text(a.value(), carry_a).value(), "frame1");
  EXPECT_EQ(ws_client_recv_text(b.value(), carry_b).value(), "frame1");
  ::close(a.value());
  ::close(b.value());
}

TEST(WsServer, RejectsNonWebsocketRequest) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char* req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";  // no upgrade headers
  ASSERT_GT(::send(fd, req, std::strlen(req), 0), 0);

  char buf[256];
  const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  EXPECT_NE(std::strstr(buf, "400"), nullptr);
  ::close(fd);

  for (int i = 0; i < 500 && server.rejected_handshakes() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.rejected_handshakes(), 1u);
  EXPECT_EQ(server.client_count(), 0u);
}

TEST(WsServer, IdleConnectionDoesNotBlockUpgradesOrClose) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  // A peer that connects and never sends its upgrade request: a port
  // scanner, or a browser's idle pre-connect.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  auto upgrade = std::async(std::launch::async,
                            [&] { return ws_client_connect("127.0.0.1", server.port()); });
  const bool upgraded =
      upgrade.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  auto closing = std::async(std::launch::async, [&] { server.close(); });
  const bool closed = closing.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  // Hanging up the idle peer releases a server stuck on it, so a failure
  // reports here rather than hanging the test.
  ::close(idle);
  closing.wait();
  EXPECT_TRUE(upgraded) << "a silent connection stalled the accept loop";
  EXPECT_TRUE(closed) << "close() waited on a silent connection";
  EXPECT_EQ(server.rejected_handshakes(), 1u);
  const auto fd = upgrade.get();
  if (fd.ok()) ::close(fd.value());
}

TEST(WsServer, DisconnectedClientPruned) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  {
    auto fd = ws_client_connect("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    wait_for_clients(server, 1);
    ::close(fd.value());
  }
  for (int i = 0; i < 100 && server.client_count() > 0; ++i) {
    server.broadcast_text(std::string(2048, 'x'));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.client_count(), 0u);
}

TEST(WsServer, BroadcastWithNoClients) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  EXPECT_EQ(server.broadcast_text("nobody home"), 0u);
}

TEST(WsServer, ManyFramesInOrder) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto fd = ws_client_connect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  wait_for_clients(server, 1);
  for (int i = 0; i < 100; ++i) server.broadcast_text("frame-" + std::to_string(i));
  std::vector<std::uint8_t> carry;
  for (int i = 0; i < 100; ++i) {
    const auto p = ws_client_recv_text(fd.value(), carry);
    ASSERT_TRUE(p.ok()) << i;
    EXPECT_EQ(p.value(), "frame-" + std::to_string(i));
  }
  ::close(fd.value());
}

}  // namespace
}  // namespace ruru
