// Observability event vocabulary (DESIGN.md §11).
//
// The trace is a stream of fixed-size, trivially-copyable events stamped by
// *logical* time only — the round (or maintenance-cycle) counter plus a
// monotonic sequence number assigned by the ring. No wall clock appears
// anywhere, which is what lets sim::CycleEngine emit byte-identical traces
// for the same seed at any thread count: every schedule records the same
// events in plan order, and plan order is the replayed order.
//
// This header sits at the bottom of obs/ so the exchange fabric
// (host/exchange.hpp, same layer rank) can fill an ExchangeOutcome without
// pulling in the recorder, the registry, or any exporter.
#pragma once

#include <cstdint>

#include "host/types.hpp"

namespace adam2::obs {

/// Typed trace events. The taxonomy covers every state transition the five
/// substrates share; per-engine coverage is documented in DESIGN.md §11.
enum class EventKind : std::uint8_t {
  kEngineStart = 0,  ///< Substrate attached / started (a = node count).
  kEngineStop,       ///< Substrate stopped (wall-clock runtimes).
  kRoundBegin,       ///< Cycle engines: top of run_round (a = live count).
  kRoundEnd,         ///< All engines: round/cycle finished.
  kExchange,         ///< One initiated gossip exchange and its fate.
  kCrashRestart,     ///< Fault-plan crash-restart with state loss.
  kNodeJoin,         ///< Churn-in (bootstrap join).
  kNodeDepart,       ///< Churn-out / targeted kill.
  kInstanceStart,    ///< Aggregation instance started on a node.
  kInstanceEnd,      ///< Scripted instance finished (run_instance returned).
};

[[nodiscard]] constexpr const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kEngineStart: return "engine_start";
    case EventKind::kEngineStop: return "engine_stop";
    case EventKind::kRoundBegin: return "round_begin";
    case EventKind::kRoundEnd: return "round_end";
    case EventKind::kExchange: return "exchange";
    case EventKind::kCrashRestart: return "crash_restart";
    case EventKind::kNodeJoin: return "node_join";
    case EventKind::kNodeDepart: return "node_depart";
    case EventKind::kInstanceStart: return "instance_start";
    case EventKind::kInstanceEnd: return "instance_end";
  }
  return "unknown";
}

/// How far one initiated exchange got before it ended. Mirrors the stages of
/// Conduit::run_cycle_exchange in order; every exchange ends in exactly one.
enum class ExchangeStatus : std::uint8_t {
  kSilent = 0,          ///< The agent had nothing to send.
  kFailedContact,       ///< Target missing, dead, or self.
  kRequestLost,         ///< Request leg lost/dropped by the pipeline.
  kRequestPartitioned,  ///< Request blocked by an overlay partition.
  kNoResponse,          ///< Responder had nothing to answer.
  kResponseLost,        ///< Response leg lost/dropped by the pipeline.
  kCompleted,           ///< Response merged by the initiator.
};

[[nodiscard]] constexpr const char* exchange_status_name(
    ExchangeStatus status) noexcept {
  switch (status) {
    case ExchangeStatus::kSilent: return "silent";
    case ExchangeStatus::kFailedContact: return "failed_contact";
    case ExchangeStatus::kRequestLost: return "request_lost";
    case ExchangeStatus::kRequestPartitioned: return "request_partitioned";
    case ExchangeStatus::kNoResponse: return "no_response";
    case ExchangeStatus::kResponseLost: return "response_lost";
    case ExchangeStatus::kCompleted: return "completed";
  }
  return "unknown";
}

/// Everything the exchange fabric can report about one initiated exchange,
/// as Conduit::run_cycle_exchange returns it.
struct ExchangeOutcome {
  host::NodeId initiator = 0;
  host::NodeId target = 0;  ///< Valid only when has_target.
  bool has_target = false;
  ExchangeStatus status = ExchangeStatus::kSilent;
  std::uint8_t request_copies = 0;   ///< Copies delivered (2 = duplicated).
  std::uint8_t response_copies = 0;
  bool request_corrupted = false;
  bool response_corrupted = false;
  std::uint32_t request_bytes = 0;   ///< Encoded payload sizes (pre-fault).
  std::uint32_t response_bytes = 0;
};

/// One fixed-size trace record. Field meaning depends on `kind`:
///   kEngineStart    a = —, value_a = node count
///   kEngineStop     —
///   kRoundBegin     value_a = live count
///   kRoundEnd       value_a = live count, value_b = nodes ever created
///   kExchange       a = initiator, b = target, status/copies/corrupt set,
///                   value_a = request bytes, value_b = response bytes
///   kCrashRestart   a = node
///   kNodeJoin       a = node
///   kNodeDepart     a = node
///   kInstanceStart  a = initiator, value_a = instance id
///   kInstanceEnd    a = initiator, value_a = instance id
struct TraceEvent {
  std::uint64_t seq = 0;  ///< Stamped by the ring: position in the stream.
  host::Round round = 0;
  EventKind kind = EventKind::kRoundBegin;
  ExchangeStatus status = ExchangeStatus::kSilent;
  std::uint8_t request_copies = 0;
  std::uint8_t response_copies = 0;
  bool request_corrupted = false;
  bool response_corrupted = false;
  host::NodeId a = 0;
  host::NodeId b = 0;
  std::uint64_t value_a = 0;
  std::uint64_t value_b = 0;
};

}  // namespace adam2::obs
