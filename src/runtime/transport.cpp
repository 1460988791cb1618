#include "runtime/transport.hpp"

namespace adam2::runtime {

void Mailbox::push(Envelope envelope) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    queue_.push_back(std::move(envelope));
  }
  ready_.notify_one();
}

std::optional<Envelope> Mailbox::wait_pop(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait_until(lock, deadline,
                    [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  Envelope envelope = std::move(queue_.front());
  queue_.pop_front();
  return envelope;
}

std::optional<Envelope> Mailbox::try_pop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return std::nullopt;
  Envelope envelope = std::move(queue_.front());
  queue_.pop_front();
  return envelope;
}

void Mailbox::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t Mailbox::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
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
    if (mailbox == nullptr) {
      ++drops_;
      return false;
    }
    ++messages_;
    bytes_ += envelope.payload.size();
  }
  mailbox->push(std::move(envelope));
  return true;
}

std::uint64_t Network::messages_routed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

std::uint64_t Network::bytes_routed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t Network::drops() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return drops_;
}

}  // namespace adam2::runtime
