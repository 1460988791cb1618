// The wall-clock runtime's request→response state machine (DESIGN.md §9.2).
//
// `SessionedPort` runs one node's side of every exchange: busy lock, NACK,
// token matching, stale-response rejection, faulty multi-copy sends and the
// gossip-byte counters. It sends its envelopes through the node's
// `Endpoint`, and every gossip send passes the shared `host::Conduit` first,
// so the runtime resolves message fates exactly as the simulators do.
// `ExchangeSession` is the raw atomicity lock the port builds on. Its
// deadlines are real time, so both belong to the wall-clock runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "host/agent.hpp"
#include "host/exchange.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "rng/rng.hpp"
#include "runtime/transport.hpp"

namespace adam2::runtime {

class ExchangeSession {
 public:
  /// True while a request is outstanding and its deadline has not passed —
  /// the node must not initiate or answer exchanges (atomicity lock).
  [[nodiscard]] bool busy() const {
    return awaiting_ && Clock::now() < deadline_;
  }

  /// Fresh token to stamp on an outgoing request. Consuming a token does not
  /// open the session — callers `arm` only once the send succeeded.
  [[nodiscard]] std::uint64_t next_token() { return ++last_token_; }

  /// Locks the session: a request with `token` is in flight, answered or
  /// abandoned by `timeout` from now.
  void arm(std::uint64_t token, Clock::duration timeout) {
    awaiting_ = true;
    token_ = token;
    deadline_ = Clock::now() + timeout;
  }

  /// Delivers a response (or busy-NACK) token. True when it matches the open
  /// exchange — the session unlocks and the caller may merge the payload.
  /// False means stale: the exchange was already abandoned, so merging would
  /// violate atomicity. A matching response is accepted even after the
  /// deadline as long as no new exchange was opened meanwhile.
  [[nodiscard]] bool close_if_current(std::uint64_t token) {
    if (!awaiting_ || token != token_) return false;
    awaiting_ = false;
    return true;
  }

  /// Drops any expired lock (called from the tick path once `busy()` is
  /// false: the exchange timed out and nothing was merged).
  void abandon() { awaiting_ = false; }

 private:
  bool awaiting_ = false;
  std::uint64_t token_ = 0;
  std::uint64_t last_token_ = 0;
  Clock::time_point deadline_{};
};

/// One node's exchanges over its endpoint. Driven from the owning node's
/// (single) thread; not itself thread-safe.
class SessionedPort {
 public:
  /// `conduit`, `endpoint`, `fault_stream` and `counters` must outlive the
  /// port (they live in the owning node); `self` stamps every envelope the
  /// port sends. The port records into `counters` the aggregation bytes it
  /// sends (once per logical send, whatever the fault fate) and receives
  /// (each request it answers, each response it merges), plus its fault,
  /// busy and stale-response counts.
  SessionedPort(const host::Conduit& conduit, Endpoint& endpoint,
                host::NodeId self, rng::Rng& fault_stream,
                host::TrafficStats& counters)
      : conduit_(conduit),
        endpoint_(endpoint),
        self_(self),
        fault_stream_(fault_stream),
        counters_(counters) {}

  enum class Initiate : std::uint8_t {
    kLocked,      ///< An exchange is still in flight; nothing happened.
    kSilent,      ///< The agent had nothing to send.
    kNoTarget,    ///< No usable gossip target.
    kSendFailed,  ///< The endpoint could not route the request.
    kSent,        ///< Request away; session armed until `timeout`.
  };

  /// One tick-path initiation attempt: busy check, expired-lock reclaim,
  /// make_request, target pick, send (through the fault pipeline), arm.
  Initiate initiate(
      host::NodeAgent& agent, host::AgentContext& ctx,
      const std::function<std::optional<host::NodeId>()>& pick_target,
      Clock::duration timeout);

  /// Handles an incoming gossip request. While locked the port NACKs (so the
  /// requester frees its own lock immediately) and returns false; otherwise
  /// the agent answers and the response goes back through the fault
  /// pipeline.
  bool on_request(host::NodeAgent& agent, host::AgentContext& ctx,
                  host::NodeId from, std::uint64_t token,
                  std::span<const std::byte> payload);

  /// Handles an incoming gossip response. False when stale (the exchange was
  /// already abandoned — merging would violate atomicity; counted as a
  /// dropped message). Duplicated responses merge once: the first copy
  /// closes the session, the second is stale by construction.
  bool on_response(host::NodeAgent& agent, host::AgentContext& ctx,
                   std::uint64_t token, std::span<const std::byte> payload);

  /// Handles a busy-NACK: unlocks if it answers the open exchange.
  void on_busy(std::uint64_t token) { (void)session_.close_if_current(token); }

  [[nodiscard]] ExchangeSession& session() { return session_; }

 private:
  /// Sends the copies of a gossip envelope the conduit resolved. Returns
  /// `Endpoint::send`'s answer: false only when `to` is unroutable, so a
  /// fault-dropped message still looks sent (the sender waits out its
  /// timeout exactly as in a deployment).
  bool send_copies(EnvelopeKind kind, host::NodeId to, std::uint64_t token,
                   std::span<const std::byte> payload);

  const host::Conduit& conduit_;
  Endpoint& endpoint_;
  const host::NodeId self_;
  rng::Rng& fault_stream_;
  host::TrafficStats& counters_;
  ExchangeSession session_;
};

}  // namespace adam2::runtime
