#include "msg/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "msg/codec.hpp"

namespace ruru {
namespace {

Message msg(std::string_view topic, std::string_view payload) {
  Message m(topic);
  m.add(Frame::from_string(payload));
  return m;
}

void wait_for_clients(const TcpBusServer& server, std::size_t n) {
  for (int i = 0; i < 500 && server.client_count() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.client_count(), n);
}

TEST(TcpTransport, BindEphemeralPort) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  EXPECT_NE(server.port(), 0);
  server.close();
}

TEST(TcpTransport, SingleClientReceivesMessages) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  wait_for_clients(server, 1);

  EXPECT_EQ(server.publish(msg("ruru.latency", "abc")), 1u);
  const auto m = client.value().recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->topic(), "ruru.latency");
  EXPECT_EQ(m->frames[1].view(), "abc");
}

TEST(TcpTransport, MultipleClientsAllReceive) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto c1 = TcpBusClient::connect("127.0.0.1", server.port());
  auto c2 = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok() && c2.ok());
  wait_for_clients(server, 2);

  EXPECT_EQ(server.publish(msg("t", "fanout")), 2u);
  EXPECT_EQ(c1.value().recv()->frames[1].view(), "fanout");
  EXPECT_EQ(c2.value().recv()->frames[1].view(), "fanout");
}

TEST(TcpTransport, MultiFrameAndBinaryPayloads) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  wait_for_clients(server, 1);

  LatencySample s;
  s.client = Ipv4Address(10, 1, 0, 1);
  s.server = Ipv4Address(10, 2, 0, 1);
  s.syn_time = Timestamp::from_ms(1);
  s.synack_time = Timestamp::from_ms(129);
  s.ack_time = Timestamp::from_ms(134);
  server.publish(encode_latency_batch({&s, 1}));

  const auto m = client.value().recv();
  ASSERT_TRUE(m.has_value());
  std::vector<LatencySample> decoded;
  ASSERT_TRUE(decode_latency_payload(m->frames[1], decoded));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].external().ns, Duration::from_ms(128).ns);
}

TEST(TcpTransport, DisconnectedClientIsPruned) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  {
    auto client = TcpBusClient::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    wait_for_clients(server, 1);
  }  // client closes
  // Publishing into the closed socket eventually fails and prunes.
  for (int i = 0; i < 50 && server.client_count() > 0; ++i) {
    server.publish(msg("t", std::string(1024, 'x')));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.client_count(), 0u);
  EXPECT_GE(server.disconnects(), 1u);
}

TEST(TcpTransport, StalledLivelyClientIsDroppedNotWaitedOn) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  wait_for_clients(server, 1);

  // The client never reads. Pumping large messages fills the socket
  // buffers; the bounded send (100 ms) then fails and the client is
  // dropped — the publisher must not hang indefinitely.
  Message big("t");
  big.add(Frame::adopt(std::vector<std::uint8_t>(64 * 1024, 0x55)));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200 && server.client_count() > 0; ++i) {
    server.publish(big);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(server.client_count(), 0u);
  EXPECT_GE(server.disconnects(), 1u);
  EXPECT_LT(secs, 10.0);  // bounded, not a hang
}

TEST(TcpTransport, ClientRecvReturnsNulloptOnServerClose) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  wait_for_clients(server, 1);
  server.close();
  EXPECT_FALSE(client.value().recv().has_value());
}

TEST(TcpTransport, ConnectToClosedPortFails) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  const std::uint16_t port = server.port();
  server.close();
  const auto client = TcpBusClient::connect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
}

TEST(TcpTransport, ManyMessagesInOrder) {
  TcpBusServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto client = TcpBusClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  wait_for_clients(server, 1);

  constexpr int kCount = 500;
  std::thread publisher([&] {
    for (int i = 0; i < kCount; ++i) server.publish(msg("seq", std::to_string(i)));
  });
  for (int i = 0; i < kCount; ++i) {
    const auto m = client.value().recv();
    ASSERT_TRUE(m.has_value()) << "at " << i;
    EXPECT_EQ(m->frames[1].view(), std::to_string(i));
  }
  publisher.join();
}

}  // namespace
}  // namespace ruru
