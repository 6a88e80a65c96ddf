#include "net/transport.hpp"

#include <stdexcept>

namespace baffle {

Channel::Channel(std::shared_ptr<Link> link, int end)
    : link_(std::move(link)), end_(end) {}

void Channel::send(WireBytes frame) {
  MutexLock lock(link_->mutex);
  if (link_->closed) {
    throw std::runtime_error("Channel: send on closed channel");
  }
  link_->bytes_sent[end_] += frame.size();
  link_->queue[end_].push_back(std::move(frame));
  link_->cv.notify_all();
}

std::optional<WireBytes> Channel::try_recv() {
  MutexLock lock(link_->mutex);
  return pop_locked();
}

std::optional<WireBytes> Channel::recv_for(
    std::chrono::milliseconds timeout) {
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

void Channel::close() {
  MutexLock lock(link_->mutex);
  link_->closed = true;
  link_->cv.notify_all();
}

bool Channel::closed() const {
  MutexLock lock(link_->mutex);
  return link_->closed;
}

std::uint64_t Channel::bytes_sent() const {
  MutexLock lock(link_->mutex);
  return link_->bytes_sent[end_];
}

std::uint64_t Channel::bytes_received() const {
  MutexLock lock(link_->mutex);
  return link_->bytes_received[end_];
}

std::optional<WireBytes> Channel::pop_locked() {
  const int peer = 1 - end_;
  if (link_->queue[peer].empty()) return std::nullopt;
  WireBytes frame = std::move(link_->queue[peer].front());
  link_->queue[peer].pop_front();
  link_->bytes_received[end_] += frame.size();
  return frame;
}

DuplexChannel InProcTransport::connect() {
  auto link = std::make_shared<Channel::Link>();
  return DuplexChannel{std::make_shared<Channel>(link, 0),
                       std::make_shared<Channel>(link, 1)};
}

}  // namespace baffle
