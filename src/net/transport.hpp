#pragma once
// Message transport between the round server and its clients.
//
// A Channel is one endpoint of a bidirectional, ordered, reliable frame
// stream; InProcTransport mints connected channel pairs whose frames
// move through a mutex-guarded queue in the server's process. It is the
// one transport: the round server and the simulated client actors talk
// only through these two classes, so the wire bytes they exchange are
// the bytes a deployment would send.
//
// Channels count the raw frame bytes that crossed them in each
// direction; the communication-accounting layer (fl/comm) reconciles its
// totals against these counters, which is what makes §VI-D's numbers
// measured rather than estimated.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "net/wire.hpp"
#include "util/sync.hpp"

namespace baffle {

class Channel {
 public:
  /// Shared state of one duplex link. Endpoint 0 and endpoint 1 each
  /// send into their own queue and receive from the peer's. Every field
  /// is guarded by the link mutex; received bytes are counted at pop
  /// time, in the critical section that dequeues the frame, so the
  /// counters can never disagree with the queues.
  struct Link {
    Mutex mutex;
    CondVar cv;
    std::deque<WireBytes> queue[2] BAFFLE_GUARDED_BY(mutex);
    std::uint64_t bytes_sent[2] BAFFLE_GUARDED_BY(mutex) = {0, 0};
    std::uint64_t bytes_received[2] BAFFLE_GUARDED_BY(mutex) = {0, 0};
    bool closed BAFFLE_GUARDED_BY(mutex) = false;
  };

  /// Endpoint `end` (0 or 1) of `link`; InProcTransport::connect makes
  /// both.
  Channel(std::shared_ptr<Link> link, int end);

  /// Enqueues one complete frame. Throws std::runtime_error if the peer
  /// closed the channel.
  void send(WireBytes frame);

  /// Dequeues the next pending frame, if any. Never blocks.
  std::optional<WireBytes> try_recv();

  /// Blocks until a frame arrives, the link closes, or `timeout`
  /// elapses.
  std::optional<WireBytes> recv_for(std::chrono::milliseconds timeout);

  void close();
  bool closed() const;

  /// Raw frame bytes sent from / delivered to this endpoint.
  std::uint64_t bytes_sent() const;
  std::uint64_t bytes_received() const;

 private:
  /// Pops the next frame sent by the peer and counts its bytes as
  /// received by this endpoint.
  std::optional<WireBytes> pop_locked() BAFFLE_REQUIRES(link_->mutex);

  std::shared_ptr<Link> link_;
  int end_;
};

/// A connected channel pair: the server holds one end, the client the
/// other. Frames sent on either end arrive, in order, at the peer.
struct DuplexChannel {
  std::shared_ptr<Channel> server;
  std::shared_ptr<Channel> client;
};

/// Mints in-process links. Thread-safe: actors run as thread-pool tasks
/// while the server polls.
class InProcTransport {
 public:
  DuplexChannel connect();
};

}  // namespace baffle
