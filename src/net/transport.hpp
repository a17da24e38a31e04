#pragma once
// Message transport between the round server and its clients.
//
// A Channel is one endpoint of a bidirectional, ordered, reliable frame
// stream; a Transport mints connected channel pairs. The round server
// and the simulated client actors only ever talk through this interface,
// so any frame transport can stand in for the in-process queue transport
// the simulation uses.
//
// Channels count the raw frame bytes that crossed them in each
// direction; the communication-accounting layer (fl/comm) reconciles its
// totals against these counters, which is what makes §VI-D's numbers
// measured rather than estimated.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "net/wire.hpp"

namespace baffle {

class Channel {
 public:
  virtual ~Channel() = default;

  /// Enqueues one complete frame. Throws std::runtime_error if the peer
  /// closed the channel.
  virtual void send(WireBytes frame) = 0;

  /// Dequeues the next pending frame, if any. Never blocks.
  virtual std::optional<WireBytes> try_recv() = 0;

  /// Blocks until a frame arrives or `timeout` elapses.
  virtual std::optional<WireBytes> recv_for(
      std::chrono::milliseconds timeout) = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;

  /// Raw frame bytes sent from / delivered to this endpoint.
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t bytes_received() const = 0;
};

/// A connected channel pair: the server holds one end, the client the
/// other. Frames sent on either end arrive, in order, at the peer.
struct DuplexChannel {
  std::shared_ptr<Channel> server;
  std::shared_ptr<Channel> client;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual DuplexChannel connect() = 0;
  virtual const char* name() const = 0;
};

/// Mutex+deque transport for simulated clients in the server's process.
/// Thread-safe: actors run as thread-pool tasks while the server polls.
class InProcTransport final : public Transport {
 public:
  DuplexChannel connect() override;
  const char* name() const override { return "inproc"; }
};

}  // namespace baffle
