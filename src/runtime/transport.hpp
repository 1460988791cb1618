// The datagram endpoint a runtime::Peer gossips through, and its in-process
// implementation.
//
// An Envelope carries a kind tag (gossip request/response, busy-NACK,
// wakeup) plus the sender id and exchange token, so a receiving peer knows
// which port callback to invoke — exactly the framing a socket deployment
// puts in front of the protocol payload. An Endpoint moves envelopes: send
// one to a node id, or wait for one until a deadline. Two implementations
// exist: NetworkEndpoint (a Mailbox on the in-process Network) and
// UdpEndpoint (runtime/udp.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "host/types.hpp"

namespace adam2::runtime {

using Clock = std::chrono::steady_clock;

enum class EnvelopeKind : std::uint8_t {
  kGossipRequest = 1,
  kGossipResponse = 2,
  kGossipBusy = 3,  ///< NACK: responder is mid-exchange; requester unlocks.
  kWakeup = 4,      ///< Empty self-notification (posted task or stop).
};

struct Envelope {
  EnvelopeKind kind = EnvelopeKind::kGossipRequest;
  host::NodeId from = 0;
  /// Exchange token: stamped on requests, echoed on responses, so a
  /// requester can discard responses to exchanges it already timed out of
  /// (merging a stale response would break exchange atomicity).
  std::uint64_t token = 0;
  std::vector<std::byte> payload;
};

/// One node's datagram socket. A Peer calls `receive` only from its own
/// thread; `send` may also come from the thread that controls the peer
/// (wakeups), so implementations must allow a send concurrent with a
/// receive.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Sends `envelope` to node `to`. False when `to` is unroutable.
  virtual bool send(host::NodeId to, Envelope envelope) = 0;

  /// Waits until `deadline` for one envelope; nullopt on timeout or when
  /// the frame that arrived could not be decoded.
  [[nodiscard]] virtual std::optional<Envelope> receive(
      Clock::time_point deadline) = 0;

  /// Frames discarded as undecodable since construction (truncated or
  /// with an invalid kind byte). Safe to read from any thread.
  [[nodiscard]] virtual std::uint64_t rejected_frames() const { return 0; }
};

/// A node's inbound queue. Threads block on `wait_pop` with a deadline so
/// the node loop wakes for whichever comes first: a message or its next
/// gossip tick.
class Mailbox {
 public:
  void push(Envelope envelope);

  /// Pops the oldest envelope, waiting at most until `deadline`.
  /// Returns nullopt on timeout or when the mailbox is closed and empty.
  [[nodiscard]] std::optional<Envelope> wait_pop(Clock::time_point deadline);

  /// Non-blocking pop.
  [[nodiscard]] std::optional<Envelope> try_pop();

  /// Wakes all waiters; subsequent waits return immediately when empty.
  void close();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Envelope> queue_;
  bool closed_ = false;
};

/// Thread-safe router between mailboxes. Delivery is immediate (in-process);
/// traffic is counted per direction for the cost accounting.
class Network {
 public:
  /// Registers `mailbox` as the endpoint for `id`. The mailbox must outlive
  /// every later send. Ids index a vector, so they should be dense, as a
  /// Cluster's 0..N-1 are.
  void attach(host::NodeId id, Mailbox* mailbox);

  /// Routes an envelope; returns false (and drops it) when the destination
  /// is not attached.
  bool send(host::NodeId to, Envelope envelope);

  [[nodiscard]] std::uint64_t messages_routed() const;
  [[nodiscard]] std::uint64_t bytes_routed() const;
  [[nodiscard]] std::uint64_t drops() const;

 private:
  mutable std::mutex mutex_;
  /// Indexed by node id; null where no mailbox is attached.
  std::vector<Mailbox*> endpoints_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
};

/// Node `id`'s endpoint on a Network: its own mailbox, attached on
/// construction. Must outlive every send the network routes to it.
class NetworkEndpoint final : public Endpoint {
 public:
  NetworkEndpoint(Network& network, host::NodeId id) : network_(network) {
    network_.attach(id, &mailbox_);
  }

  bool send(host::NodeId to, Envelope envelope) override {
    return network_.send(to, std::move(envelope));
  }
  [[nodiscard]] std::optional<Envelope> receive(
      Clock::time_point deadline) override {
    return mailbox_.wait_pop(deadline);
  }

 private:
  Network& network_;
  Mailbox mailbox_;
};

}  // namespace adam2::runtime
