// The ONE translation unit that decides message fates. Engines schedule and
// deliver; everything that can go wrong to a message in flight is resolved
// here (see exchange.hpp and DESIGN.md §9).
#include "host/exchange.hpp"

namespace adam2::host {

Conduit::Delivery Conduit::resolve(const Leg& leg,
                                   std::span<const std::byte> payload,
                                   std::vector<std::byte>& scratch,
                                   TrafficStats& counters) const {
  Delivery delivery;
  delivery.payload = payload;

  // Stage order (and therefore draw order): the stateless partition check,
  // then the fault-plan draws from the fault stream.
  if (leg.partition_check && faults_.enabled() &&
      faults_.partitioned(leg.from, leg.to, leg.round)) {
    ++counters.partitioned_messages;
    delivery.drop_cause = DropCause::kPartition;
    return delivery;
  }
  const MessageFate fate = leg.fault_stream != nullptr
                               ? faults_.message_fate(*leg.fault_stream)
                               : MessageFate::kDeliver;
  if (fate == MessageFate::kDrop) {
    ++counters.dropped_messages;
    delivery.drop_cause = DropCause::kFault;
    return delivery;
  }

  delivery.copies = 1;
  switch (fate) {
    case MessageFate::kCorrupt:
      scratch = faults_.corrupt(payload, *leg.fault_stream);
      delivery.payload = scratch;
      delivery.corrupted = true;
      ++counters.corrupted_messages;
      break;
    case MessageFate::kDuplicate:
      delivery.copies = 2;
      ++counters.duplicated_messages;
      break;
    case MessageFate::kDeliver:
    case MessageFate::kDrop:
      break;
  }

  // Injected extra delay: drawn last, only for event-driven substrates.
  if (leg.draw_delay && leg.fault_stream != nullptr) {
    delivery.extra_delay = faults_.extra_delay(*leg.fault_stream);
    if (delivery.extra_delay > 0.0) ++counters.delayed_messages;
  }
  return delivery;
}

obs::ExchangeOutcome Conduit::run_cycle_exchange(
    HostView& host, Overlay& overlay, NodeTable& table, Round round,
    Node& initiator, const std::optional<NodeId>& target,
    TrafficStats& counters) const {
  obs::ExchangeOutcome outcome;
  outcome.initiator = initiator.id;
  if (target) {
    outcome.target = *target;
    outcome.has_target = true;
  }
  AgentContext ictx = make_context(host, overlay, initiator, round);
  auto request = initiator.agent->make_request(ictx);
  if (request.empty()) return outcome;  // kSilent.
  outcome.request_bytes = static_cast<std::uint32_t>(request.size());

  if (!target || !table.is_live(*target) || *target == initiator.id) {
    ++counters.failed_contacts;
    outcome.status = obs::ExchangeStatus::kFailedContact;
    return outcome;
  }

  counters.record_message(Channel::kAggregation, request.size());
  // Both legs draw from the initiator's fault stream, so the unit is
  // self-contained and sharded runs replay bit-identically to one-thread
  // runs. The partition check applies to the request leg only: a blocked
  // request means no response ever exists.
  std::vector<std::byte> request_scratch;
  const Delivery request_delivery =
      resolve(Leg{initiator.id, *target, round, &initiator.fault_rng,
                  /*partition_check=*/true, /*draw_delay=*/false},
              request, request_scratch, counters);
  outcome.request_copies = static_cast<std::uint8_t>(request_delivery.copies);
  outcome.request_corrupted = request_delivery.corrupted;
  if (request_delivery.copies == 0) {
    outcome.status = request_delivery.drop_cause == DropCause::kPartition
                         ? obs::ExchangeStatus::kRequestPartitioned
                         : obs::ExchangeStatus::kRequestLost;
    return outcome;
  }

  Node& responder = table.at(*target);
  AgentContext rctx = make_context(host, overlay, responder, round);
  // The payload aliases the request scratch (or the corruption scratch):
  // valid across every delivery because this thread makes no other request
  // until the unit ends. A duplicated (retransmitted) request is processed
  // once per copy, and only the reply to the LAST copy travels back — the
  // earlier reply span is invalidated by the later handle_request call
  // anyway.
  std::span<const std::byte> response;
  for (unsigned copy = 0; copy < request_delivery.copies; ++copy) {
    response = responder.agent->handle_request(rctx, request_delivery.payload);
  }
  if (response.empty()) {
    outcome.status = obs::ExchangeStatus::kNoResponse;
    return outcome;
  }
  outcome.response_bytes = static_cast<std::uint32_t>(response.size());

  counters.record_message(Channel::kAggregation, response.size());
  std::vector<std::byte> response_scratch;
  const Delivery response_delivery =
      resolve(Leg{responder.id, initiator.id, round, &initiator.fault_rng,
                  /*partition_check=*/false, /*draw_delay=*/false},
              response, response_scratch, counters);
  outcome.response_copies =
      static_cast<std::uint8_t>(response_delivery.copies);
  outcome.response_corrupted = response_delivery.corrupted;
  if (response_delivery.copies == 0) {
    outcome.status = obs::ExchangeStatus::kResponseLost;
    return outcome;
  }
  // The response aliases the reply scratch: valid across both
  // handle_response calls because this thread handles no other request in
  // between.
  for (unsigned copy = 0; copy < response_delivery.copies; ++copy) {
    initiator.agent->handle_response(ictx, response_delivery.payload);
  }
  outcome.status = obs::ExchangeStatus::kCompleted;
  return outcome;
}

}  // namespace adam2::host
