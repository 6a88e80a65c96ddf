#include "net/transport.hpp"

#include <deque>
#include <stdexcept>

#include "util/sync.hpp"

namespace baffle {

namespace {

/// Shared state of one in-process duplex link. Endpoint 0 and endpoint 1
/// each send into their own queue and receive from the peer's. Every
/// field — queues, per-direction byte counters, the closed flag — is
/// guarded by the link mutex; received bytes are counted at pop time,
/// under the same critical section that dequeues the frame, so the
/// counters can never disagree with the queues.
struct InProcLink {
  Mutex mutex;
  CondVar cv;
  std::deque<WireBytes> queue[2] BAFFLE_GUARDED_BY(mutex);
  std::uint64_t bytes_sent[2] BAFFLE_GUARDED_BY(mutex) = {0, 0};
  std::uint64_t bytes_received[2] BAFFLE_GUARDED_BY(mutex) = {0, 0};
  bool closed BAFFLE_GUARDED_BY(mutex) = false;
};

class InProcChannel final : public Channel {
 public:
  InProcChannel(std::shared_ptr<InProcLink> link, int end)
      : link_(std::move(link)), end_(end) {}

  void send(WireBytes frame) override {
    MutexLock lock(link_->mutex);
    if (link_->closed) {
      throw std::runtime_error("InProcChannel: send on closed channel");
    }
    link_->bytes_sent[end_] += frame.size();
    link_->queue[end_].push_back(std::move(frame));
    link_->cv.notify_all();
  }

  std::optional<WireBytes> try_recv() override {
    MutexLock lock(link_->mutex);
    return pop_locked();
  }

  std::optional<WireBytes> recv_for(
      std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(link_->mutex);
    const int peer = 1 - end_;
    while (link_->queue[peer].empty() && !link_->closed) {
      if (link_->cv.wait_until(link_->mutex, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    return pop_locked();
  }

  void close() override {
    MutexLock lock(link_->mutex);
    link_->closed = true;
    link_->cv.notify_all();
  }

  bool closed() const override {
    MutexLock lock(link_->mutex);
    return link_->closed;
  }

  std::uint64_t bytes_sent() const override {
    MutexLock lock(link_->mutex);
    return link_->bytes_sent[end_];
  }

  std::uint64_t bytes_received() const override {
    MutexLock lock(link_->mutex);
    return link_->bytes_received[end_];
  }

 private:
  /// Pops the next frame sent by the peer and counts its bytes as
  /// received by this endpoint.
  std::optional<WireBytes> pop_locked() BAFFLE_REQUIRES(link_->mutex) {
    const int peer = 1 - end_;
    if (link_->queue[peer].empty()) return std::nullopt;
    WireBytes frame = std::move(link_->queue[peer].front());
    link_->queue[peer].pop_front();
    link_->bytes_received[end_] += frame.size();
    return frame;
  }

  std::shared_ptr<InProcLink> link_;
  int end_;
};

}  // namespace

DuplexChannel InProcTransport::connect() {
  auto link = std::make_shared<InProcLink>();
  DuplexChannel duplex;
  duplex.server = std::make_shared<InProcChannel>(link, 0);
  duplex.client = std::make_shared<InProcChannel>(link, 1);
  return duplex;
}

}  // namespace baffle
