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
//
// The event-driven simulator keeps its own virtual-time busy set, and the
// wall-clock runtime its sessions (runtime/session.hpp); both resolve every
// leg through `resolve()`.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Returns how far the exchange got (obs trace support); filling it
  /// allocates nothing and draws nothing, so the caller keeps it only when
  /// a recorder is attached.
  [[nodiscard]] obs::ExchangeOutcome run_cycle_exchange(
      HostView& host, Overlay& overlay, NodeTable& table, Round round,
      Node& initiator, const std::optional<NodeId>& target,
      TrafficStats& counters) const;

 private:
  FaultInjector faults_;
};

}  // namespace adam2::host
