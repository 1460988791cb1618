// The per-node record every substrate keeps, plus the context builder.
// Whether a node is live is not in its record: host::NodeTable keeps one
// dense liveness table beside the records (host/registry.hpp).
#pragma once

#include <memory>

#include "host/agent.hpp"
#include "host/types.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"

namespace adam2::host {

/// One hosted node. Each node carries two decorrelated random streams derived
/// from the master seed at spawn time:
///
///  * `rng`      — the agent stream, consumed only inside agent callbacks
///                 (restart coin flips, threshold sampling, ...);
///  * `pick_rng` — the control stream, consumed only by the hosting engine
///                 (gossip target picks and bootstrap contact picks).
///
/// Fault-injecting engines add a third stream, `fault_rng`, seeded
/// *statelessly* from the fault-plan seed and the node id (never drawn from
/// an engine stream), consumed only for fault decisions about messages this
/// node initiates plus its own crash draws. A disabled plan never touches
/// it, so fault-aware engines replay bit-identically to fault-free ones.
///
/// Keeping the two apart is what makes parallel execution bit-identical to
/// serial execution: an engine can pre-draw every control decision in a plan
/// phase without perturbing any agent's stream, and each stream is advanced
/// by exactly one node regardless of how exchanges are scheduled across
/// threads.
struct Node {
  NodeId id = 0;
  stats::Value attribute = 0;
  Round birth_round = 0;
  rng::Rng rng{0};        ///< Agent stream.
  rng::Rng pick_rng{0};   ///< Engine control stream.
  rng::Rng fault_rng{0};  ///< Fault-injection stream (host::FaultInjector).
  std::unique_ptr<NodeAgent> agent;
};

/// Builds the callback context for `node` at `round`.
[[nodiscard]] inline AgentContext make_context(HostView& host, Overlay& overlay,
                                               Node& node, Round round) {
  return AgentContext{host,   overlay,        node.id,  round,
                      node.birth_round, node.attribute, node.rng};
}

}  // namespace adam2::host
