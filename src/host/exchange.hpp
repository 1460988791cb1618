// The transport-agnostic exchange fabric shared by every execution substrate
// (DESIGN.md §9).
//
// One per-message pipeline — partition check, fault-fate draw, corruption
// mangling, duplicate delivery, traffic counters — serves all five engines,
// so they cannot diverge:
//
//  * `Conduit` owns per-leg fate resolution. `resolve()` is the ONLY place
//    in the codebase that switches on `MessageFate`, and the fault plan's
//    `drop_rate` is the one way a message is lost. It draws in a fixed
//    order, only from the fault stream the leg names, so replay is
//    bit-identical on any schedule. Engines receive back a `Delivery` — how
//    many copies to hand over, pointing at which bytes, after how much extra
//    delay — and do scheduling only.
//  * `Conduit::run_cycle_exchange()` is the full in-round request→response
//    state machine of the cycle engine (any thread count), including the
//    "reply to the second copy wins" duplicate rule. Payload spans alias
//    encode scratch end to end: the steady-state exchange allocates nothing
//    (bench/micro_core pins this).
//  * `SessionedPort` is the request→response state machine of the wall-clock
//    runtime: busy lock, NACK, token matching, stale-response rejection,
//    faulty multi-copy sends, gossip-byte counters — parameterised by a
//    `Transport` adapter that knows only how to move an envelope.
//
// `ExchangeSession` (below) is the raw atomicity lock `SessionedPort` builds
// on; the event-driven simulator keeps its own virtual-time busy set but
// shares `Conduit` for everything per-message.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/fault.hpp"
#include "host/node.hpp"
#include "host/overlay.hpp"
#include "host/registry.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "host/view.hpp"
#include "obs/events.hpp"
#include "rng/rng.hpp"

namespace adam2::host {

class ExchangeSession {
 public:
  using Clock = std::chrono::steady_clock;

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

/// The per-message delivery pipeline: partitions and the fault plan,
/// resolved in one place for every substrate.
class Conduit {
 public:
  Conduit() = default;  ///< No faults: every leg delivers one copy.
  explicit Conduit(const FaultPlan& plan) : faults_(plan) {}

  [[nodiscard]] const FaultInjector& faults() const noexcept { return faults_; }

  /// One direction of one message: who is sending to whom, at which round,
  /// and from which random stream the pipeline may draw.
  struct Leg {
    NodeId from = 0;
    NodeId to = 0;
    Round round = 0;
    /// Stream for the fault-plan draws (fate, corruption bytes, delay); null
    /// skips them.
    rng::Rng* fault_stream = nullptr;
    /// Whether this leg can be blocked by an overlay partition (stateless
    /// check, consumes no draws). The cycle engine checks the request leg
    /// only; the event-driven engine checks both.
    bool partition_check = false;
    /// Whether to draw injected extra delay (event-driven substrates only).
    bool draw_delay = false;
  };

  /// Why a leg delivered zero copies (observability: the trace distinguishes
  /// a partition-blocked request from a fault-dropped one).
  enum class DropCause : std::uint8_t {
    kNone = 0,    ///< Delivered (copies > 0).
    kPartition,   ///< Blocked by an overlay partition.
    kFault,       ///< Fault-plan drop fate.
  };

  /// What the transport must now do with the message.
  struct Delivery {
    /// 0 = the message never arrives (dropped or partitioned);
    /// 1 = deliver once; 2 = deliver twice (duplication fault).
    unsigned copies = 0;
    /// The bytes to deliver — the caller's payload, or `scratch` when the
    /// leg was corrupted. Valid as long as both stay alive and unmodified.
    std::span<const std::byte> payload;
    /// Injected extra delay in seconds (only when `leg.draw_delay`). Both
    /// copies of a duplicated message share it; transports add their own
    /// per-copy latency on top.
    double extra_delay = 0.0;
    /// Cause when copies == 0; kNone otherwise.
    DropCause drop_cause = DropCause::kNone;
    /// True when the payload was rebound to the corruption scratch.
    bool corrupted = false;
  };

  /// Resolves the fate of one leg: partition → fate (with mangling) → delay,
  /// in the engines' historical stream order, bumps the matching
  /// `counters`, and rebinds the payload to `scratch` when corrupted.
  /// Allocates only on corruption — the steady-state path is allocation-free.
  Delivery resolve(const Leg& leg, std::span<const std::byte> payload,
                   std::vector<std::byte>& scratch,
                   TrafficStats& counters) const;

  /// The cycle engine's whole exchange: make_request, failed-contact
  /// accounting, both legs through `resolve`, duplicate-copy delivery with
  /// the "reply to the second copy wins" rule, and traffic recording. Bytes,
  /// failed contacts and fates all count into `counters`, the accumulator
  /// the caller holds (a worker's slot in a sharded phase); `host` only
  /// backs the agent contexts. Draws only from the two participants' agent
  /// streams and the initiator's fault stream, and touches only the two
  /// participants plus `counters` — the unit stays parallel-safe.
  /// When `outcome` is non-null it is filled with how far the exchange got
  /// (obs trace support); the null path is the exact pre-obs instruction
  /// stream, so detached runs stay bit-identical and allocation-free.
  void run_cycle_exchange(HostView& host, Overlay& overlay, NodeTable& table,
                          Round round, Node& initiator,
                          const std::optional<NodeId>& target,
                          TrafficStats& counters,
                          obs::ExchangeOutcome* outcome = nullptr) const;

 private:
  FaultInjector faults_;
};

/// The wall-clock runtime's request→response state machine (runtime::Peer,
/// over any datagram endpoint). Owns the busy lock, token discipline, NACKs,
/// stale-response rejection, faulty multi-copy sends and the gossip-byte
/// counters; a `Transport` adapter supplies the envelope moves.
///
/// Driven from the owning node's (single) thread; not itself thread-safe.
class SessionedPort {
 public:
  /// What a transport must provide. Send methods return false only when the
  /// destination is unroutable — a fault-dropped message still looks sent
  /// (the sender waits out its timeout exactly as in a deployment).
  class Transport {
   public:
    virtual ~Transport() = default;
    virtual bool send_request(NodeId to, std::uint64_t token,
                              std::span<const std::byte> payload) = 0;
    virtual bool send_response(NodeId to, std::uint64_t token,
                               std::span<const std::byte> payload) = 0;
    virtual void send_busy(NodeId to, std::uint64_t token) = 0;
  };

  /// `conduit`, `transport`, `fault_stream` and `counters` must outlive the
  /// port (they live in the owning node). The port records into `counters`
  /// the aggregation bytes it sends (once per logical send, whatever the
  /// fault fate) and receives (each request it answers, each response it
  /// merges), plus its fault, busy and stale-response counts.
  SessionedPort(const Conduit& conduit, Transport& transport,
                rng::Rng& fault_stream, TrafficStats& counters)
      : conduit_(conduit),
        transport_(transport),
        fault_stream_(fault_stream),
        counters_(counters) {}

  enum class Initiate : std::uint8_t {
    kLocked,      ///< An exchange is still in flight; nothing happened.
    kSilent,      ///< The agent had nothing to send.
    kNoTarget,    ///< No usable gossip target.
    kSendFailed,  ///< The transport could not route the request.
    kSent,        ///< Request away; session armed until `timeout`.
  };

  /// One tick-path initiation attempt: busy check, expired-lock reclaim,
  /// make_request, target pick, send (through the fault pipeline), arm.
  Initiate initiate(NodeAgent& agent, AgentContext& ctx,
                    const std::function<std::optional<NodeId>()>& pick_target,
                    ExchangeSession::Clock::duration timeout);

  /// Handles an incoming gossip request. While locked the port NACKs (so the
  /// requester frees its own lock immediately) and returns false; otherwise
  /// the agent answers and the response goes back through the fault
  /// pipeline.
  bool on_request(NodeAgent& agent, AgentContext& ctx, NodeId from,
                  std::uint64_t token, std::span<const std::byte> payload);

  /// Handles an incoming gossip response. False when stale (the exchange was
  /// already abandoned — merging would violate atomicity; counted as a
  /// dropped message). Duplicated responses merge once: the first copy
  /// closes the session, the second is stale by construction.
  bool on_response(NodeAgent& agent, AgentContext& ctx, std::uint64_t token,
                   std::span<const std::byte> payload);

  /// Handles a busy-NACK: unlocks if it answers the open exchange.
  void on_busy(std::uint64_t token) { (void)session_.close_if_current(token); }

  [[nodiscard]] ExchangeSession& session() { return session_; }

 private:
  /// Sends `copies` of a payload as resolved by the conduit. True when the
  /// sender believes the send succeeded (including fault-dropped messages).
  bool send_copies(bool is_request, NodeId to, std::uint64_t token,
                   std::span<const std::byte> payload);

  const Conduit& conduit_;
  Transport& transport_;
  rng::Rng& fault_stream_;
  TrafficStats& counters_;
  ExchangeSession session_;
};

}  // namespace adam2::host
