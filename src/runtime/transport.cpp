#include "runtime/transport.hpp"

namespace adam2::runtime {

void Mailbox::push(Envelope envelope) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(envelope));
  }
  ready_.notify_one();
}

std::optional<Envelope> Mailbox::wait_pop(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait_until(lock, deadline, [this] { return !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;
  Envelope envelope = std::move(queue_.front());
  queue_.pop_front();
  return envelope;
}

void Network::attach(host::NodeId id, Mailbox* mailbox) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id >= endpoints_.size()) endpoints_.resize(id + 1, nullptr);
  endpoints_[id] = mailbox;
}

bool Network::send(host::NodeId to, Envelope envelope) {
  Mailbox* mailbox = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (to < endpoints_.size()) mailbox = endpoints_[to];
  }
  if (mailbox == nullptr) return false;
  mailbox->push(std::move(envelope));
  return true;
}

}  // namespace adam2::runtime
