#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

namespace baffle {
namespace {

using namespace std::chrono_literals;

WireBytes frame(std::uint8_t fill, std::size_t n) {
  return WireBytes(n, fill);
}

TEST(InProcTransport, DeliversFramesInOrder) {
  InProcTransport transport;
  auto pair = transport.connect();
  pair.client->send(frame(1, 3));
  pair.client->send(frame(2, 5));
  auto first = pair.server->try_recv();
  auto second = pair.server->try_recv();
  ASSERT_TRUE(first && second);
  EXPECT_EQ((*first)[0], 1);
  EXPECT_EQ((*second)[0], 2);
  EXPECT_FALSE(pair.server->try_recv().has_value());
}

TEST(InProcTransport, DirectionsAreIndependent) {
  InProcTransport transport;
  auto pair = transport.connect();
  pair.server->send(frame(9, 2));
  // The server's own inbound queue stays empty.
  EXPECT_FALSE(pair.server->try_recv().has_value());
  auto got = pair.client->try_recv();
  ASSERT_TRUE(got);
  EXPECT_EQ((*got)[0], 9);
}

TEST(InProcTransport, ConnectMintsIndependentPairs) {
  InProcTransport transport;
  auto a = transport.connect();
  auto b = transport.connect();
  a.client->send(frame(1, 1));
  EXPECT_FALSE(b.server->try_recv().has_value());
  EXPECT_TRUE(a.server->try_recv().has_value());
}

TEST(InProcTransport, RecvForTimesOutOnEmptyQueue) {
  InProcTransport transport;
  auto pair = transport.connect();
  EXPECT_FALSE(pair.server->recv_for(5ms).has_value());
}

TEST(InProcTransport, RecvForWakesOnCrossThreadSend) {
  InProcTransport transport;
  auto pair = transport.connect();
  std::thread producer([client = pair.client] {
    std::this_thread::sleep_for(10ms);
    client->send(frame(7, 4));
  });
  const auto got = pair.server->recv_for(5s);
  producer.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->size(), 4u);
}

TEST(InProcTransport, SendAfterPeerCloseThrows) {
  InProcTransport transport;
  auto pair = transport.connect();
  pair.server->close();
  EXPECT_TRUE(pair.server->closed());
  EXPECT_THROW(pair.client->send(frame(1, 1)), std::runtime_error);
}

TEST(InProcTransport, CloseWakesBlockedReceiver) {
  InProcTransport transport;
  auto pair = transport.connect();
  std::thread closer([client = pair.client] {
    std::this_thread::sleep_for(10ms);
    client->close();
  });
  // Must return (empty) promptly instead of sleeping out the full 5s.
  const auto got = pair.server->recv_for(5s);
  closer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(InProcTransport, QueuedFramesSurviveClose) {
  InProcTransport transport;
  auto pair = transport.connect();
  pair.client->send(frame(3, 2));
  pair.client->close();
  // A frame that made it into the queue before the close still drains.
  const auto got = pair.server->try_recv();
  ASSERT_TRUE(got);
  EXPECT_EQ((*got)[0], 3);
}

TEST(InProcTransport, ByteCountersTrackEachDirection) {
  InProcTransport transport;
  auto pair = transport.connect();
  pair.client->send(frame(0, 10));
  pair.server->send(frame(0, 4));
  EXPECT_EQ(pair.client->bytes_sent(), 10u);
  EXPECT_EQ(pair.server->bytes_sent(), 4u);
  // Received counts at delivery (pop), not enqueue: an unread frame has
  // not yet been "received" by the endpoint.
  EXPECT_EQ(pair.server->bytes_received(), 0u);
  pair.server->try_recv();
  EXPECT_EQ(pair.server->bytes_received(), 10u);
  pair.client->try_recv();
  EXPECT_EQ(pair.client->bytes_received(), 4u);
}

}  // namespace
}  // namespace baffle
