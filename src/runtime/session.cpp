#include "runtime/session.hpp"

#include <vector>

namespace adam2::runtime {

SessionedPort::Initiate SessionedPort::initiate(
    host::NodeAgent& agent, host::AgentContext& ctx,
    const std::function<std::optional<host::NodeId>()>& pick_target,
    Clock::duration timeout) {
  if (session_.busy()) return Initiate::kLocked;  // Exchange atomicity.
  session_.abandon();  // Any previous lock has expired unanswered.

  auto request = agent.make_request(ctx);
  if (request.empty()) return Initiate::kSilent;
  const auto target = pick_target();
  if (!target) return Initiate::kNoTarget;
  counters_.on(host::Channel::kAggregation).add_send(request.size());
  const std::uint64_t token = session_.next_token();
  if (!send_copies(EnvelopeKind::kGossipRequest, *target, token, request)) {
    return Initiate::kSendFailed;
  }
  session_.arm(token, timeout);
  return Initiate::kSent;
}

bool SessionedPort::on_request(host::NodeAgent& agent,
                               host::AgentContext& ctx, host::NodeId from,
                               std::uint64_t token,
                               std::span<const std::byte> payload) {
  if (session_.busy()) {
    // Atomicity: our state could still change when our own outstanding
    // response arrives, so we must not commit to an answer now — but NACK
    // so the requester frees its own lock immediately instead of waiting
    // out its response timeout. NACKs are control traffic: they bypass the
    // fault pipeline.
    ++counters_.busy_rejections;
    endpoint_.send(from, Envelope{EnvelopeKind::kGossipBusy, self_, token, {}});
    return false;
  }
  counters_.on(host::Channel::kAggregation).add_receive(payload.size());
  auto response = agent.handle_request(ctx, payload);
  if (response.empty()) return true;
  counters_.on(host::Channel::kAggregation).add_send(response.size());
  send_copies(EnvelopeKind::kGossipResponse, from, token, response);
  return true;
}

bool SessionedPort::on_response(host::NodeAgent& agent,
                                host::AgentContext& ctx, std::uint64_t token,
                                std::span<const std::byte> payload) {
  if (!session_.close_if_current(token)) {
    // Stale: we already gave up on that exchange. Merging it now would
    // violate atomicity (our state moved on meanwhile).
    ++counters_.dropped_messages;
    return false;
  }
  counters_.on(host::Channel::kAggregation).add_receive(payload.size());
  agent.handle_response(ctx, payload);
  return true;
}

bool SessionedPort::send_copies(EnvelopeKind kind, host::NodeId to,
                                std::uint64_t token,
                                std::span<const std::byte> payload) {
  // Wall-clock runtimes have no simulated partitions and no injected delay
  // (real latency supplies itself): only the fault-plan fate applies.
  std::vector<std::byte> scratch;
  const host::Conduit::Delivery delivery = conduit_.resolve(
      host::Conduit::Leg{self_, to, /*round=*/0, &fault_stream_,
                         /*partition_check=*/false, /*draw_delay=*/false},
      payload, scratch, counters_);
  if (delivery.copies == 0) {
    return true;  // The sender cannot tell a dropped message from a sent one.
  }
  bool sent = false;
  for (unsigned copy = 0; copy < delivery.copies; ++copy) {
    // The span aliases the agent's (or the conduit's corruption) scratch;
    // the envelope outlives this call, so each copy owns its bytes.
    sent = endpoint_.send(
        to, Envelope{kind, self_, token,
                     std::vector<std::byte>(delivery.payload.begin(),
                                            delivery.payload.end())});
  }
  return sent;
}

}  // namespace adam2::runtime
