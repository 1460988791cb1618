// Protocol-side interface of every substrate.
//
// A NodeAgent is the per-node protocol instance (Adam2, EquiDepth, ...). The
// hosting substrate mediates every interaction: it asks an agent for a gossip
// request, delivers it to the chosen target's agent, and routes the response
// back — all as encoded byte buffers, exactly as a deployment would put them
// on the wire. Agents never touch each other directly, which is what lets the
// same agent code run under the cycle engine (on one thread or sharded), the
// event-driven engine, and the threaded runtimes unchanged.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "host/overlay.hpp"
#include "host/types.hpp"
#include "host/view.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "wire/buffer.hpp"

namespace adam2::host {

/// Everything an agent may see of its host node during a callback. All
/// substrates construct these, so protocol implementations are
/// transport-agnostic.
struct AgentContext {
  HostView& host;          ///< Liveness/attribute queries, traffic recording.
  Overlay& overlay;        ///< Neighbour queries (bootstrap point selection).
  NodeId self = 0;         ///< This node's id.
  Round round = 0;         ///< Current gossip round.
  Round birth_round = 0;   ///< Round the node joined the system (0 = initial).
  stats::Value attribute;  ///< The node's current attribute value.
  rng::Rng& rng;           ///< The node's private random stream.
};

/// Per-node protocol logic. All byte spans are encoded wire messages.
///
/// Buffer ownership on the exchange hot path: make_request and
/// handle_request return *views* into encode scratch that the caller does
/// not own. A request view stays valid until the calling thread's next
/// make_request, and a reply view until its next handle_request, on any
/// agent; an agent may also invalidate both at its own next callback.
/// (Adam2Agent encodes into two per-thread buffers, one for requests and
/// one for replies, so an idle agent holds no encode buffer and a reply
/// never overwrites the request it answers.) Substrates either consume the
/// bytes within the exchange on one thread (the cycle engine does: a worker
/// runs one exchange unit at a time, from make_request to the last
/// handle_response) or copy them into an owned envelope (the event-driven
/// engine and the socket runtimes, whose messages outlive the callback).
/// This keeps steady-state exchanges free of heap allocations.
class NodeAgent {
 public:
  virtual ~NodeAgent() = default;

  /// Called once per round before any exchange (TTL bookkeeping, instance
  /// creation, ...).
  virtual void on_round_start(AgentContext& /*ctx*/) {}

  /// The agent's gossip request for this round; empty means "stay silent".
  /// The view is valid until this thread's next make_request (see above).
  [[nodiscard]] virtual std::span<const std::byte> make_request(
      AgentContext& ctx) = 0;

  /// Responder side of an exchange; the returned buffer is delivered back to
  /// the requester (empty = no response). The view is valid until this
  /// thread's next handle_request (see above).
  [[nodiscard]] virtual std::span<const std::byte> handle_request(
      AgentContext& ctx, std::span<const std::byte> request) = 0;

  /// Requester side: the response to this round's request.
  virtual void handle_response(AgentContext& /*ctx*/,
                               std::span<const std::byte> /*response*/) {}

  /// A hint with no effect on behaviour: loads the state this agent's next
  /// exchange touches, one level per call. Level 0 is the agent object
  /// itself, level 1 the state it points to, and so on; each level's
  /// addresses are read from the level before, so a caller asks for level
  /// d + 1 only once level d has had time to arrive. It reads the agent and
  /// writes nothing. Returns whether the agent holds exchange state (one
  /// that holds none stays silent); true at level 0, where that is not yet
  /// known. The default loads nothing and returns false.
  virtual bool prefetch(std::size_t /*level*/) const { return false; }

  /// Join-time state transfer: a node entering the system sends one
  /// bootstrap request to a random neighbour and receives its response
  /// (§IV: joining nodes are bootstrapped by their initial neighbours).
  [[nodiscard]] virtual std::vector<std::byte> make_bootstrap_request(
      AgentContext& /*ctx*/) {
    return {};
  }
  [[nodiscard]] virtual std::vector<std::byte> handle_bootstrap_request(
      AgentContext& /*ctx*/, std::span<const std::byte> /*request*/) {
    return {};
  }
  /// Returns true when the response satisfied the bootstrap; false lets
  /// the substrate retry with another neighbour (e.g. the contact had
  /// nothing to share yet).
  virtual bool handle_bootstrap_response(AgentContext& /*ctx*/,
                                         std::span<const std::byte> /*response*/) {
    return true;
  }

  /// Checkpoint hooks (host::snapshot, DESIGN.md §12). save_state encodes
  /// the agent's full persistent protocol state into `out` and returns true;
  /// restore_state decodes the same encoding from a freshly-constructed
  /// agent of the same type and returns true on success. The defaults return
  /// false — "this agent type is not snapshottable" — which makes the whole
  /// engine snapshot fail loudly instead of silently dropping state.
  /// Contract: restore_state(save_state(a)) must leave the agent's
  /// observable behaviour (including wire bytes and draw sequences)
  /// bit-identical to `a`, and a second save_state must re-encode the exact
  /// same bytes (canonical form).
  [[nodiscard]] virtual bool save_state(wire::Writer& /*out*/) const {
    return false;
  }
  [[nodiscard]] virtual bool restore_state(wire::Reader& /*in*/) {
    return false;
  }
};

/// Creates the agent for a (possibly churned-in) node.
using AgentFactory =
    std::function<std::unique_ptr<NodeAgent>(const AgentContext&)>;

/// Draws the attribute value of a churned-in node.
using AttributeSource = std::function<stats::Value(rng::Rng&)>;

}  // namespace adam2::host
