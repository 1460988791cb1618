#include "host/bootstrap.hpp"

namespace adam2::host {

void bootstrap_joiner(Node& joiner, NodeTable& table, Overlay& overlay,
                      HostView& host, Round round, TrafficStats& totals) {
  AgentContext ctx = make_context(host, overlay, joiner, round);
  auto request = joiner.agent->make_bootstrap_request(ctx);
  if (request.empty()) return;

  for (int attempt = 0; attempt < kBootstrapAttempts; ++attempt) {
    const auto target = overlay.pick_gossip_target(joiner.id, joiner.pick_rng);
    if (!target || !table.is_live(*target)) {
      ++totals.failed_contacts;
      continue;
    }
    totals.record_message(Channel::kBootstrap, request.size());
    Node& neighbour = table.at(*target);
    AgentContext nctx = make_context(host, overlay, neighbour, round);
    auto response = neighbour.agent->handle_bootstrap_request(nctx, request);
    if (response.empty()) continue;
    totals.record_message(Channel::kBootstrap, response.size());
    if (joiner.agent->handle_bootstrap_response(ctx, response)) break;
  }
}

}  // namespace adam2::host
