// Deterministic fault injection shared by every execution substrate.
//
// A FaultPlan declares *what* can go wrong (rates and bounds); a
// FaultInjector turns the plan into per-message and per-node decisions drawn
// from dedicated fault streams, derived statelessly from the plan seed and
// the node id. Three properties matter (DESIGN.md §8):
//
//  * replayable — the same plan against the same node ids produces the same
//    fault schedule, on any substrate, in any process;
//  * parallel-safe — a node's fault stream is consumed only inside that
//    node's exchange unit (cycle engine) or on that node's thread
//    (runtimes), never shared, so the sharded cycle engine stays
//    bit-identical to its one-thread run with faults enabled;
//  * invisible when disabled — the default (all-zero) plan consumes nothing
//    from any stream and takes no branch with a side effect, so fault-aware
//    engines replay bit-identically to the pre-fault engines.
//
// The taxonomy: message drop, duplication, payload corruption (truncation or
// byte flips — the wire validation walk must reject these, never crash),
// bounded extra delay (event-driven substrates, where it causes reordering),
// node crash-restart with state loss, and overlay partitions that heal after
// a configured number of cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/types.hpp"
#include "rng/rng.hpp"

namespace adam2::host {

/// Declarative fault schedule. All rates are per-message (or per-node-round
/// for crashes) probabilities in [0, 1]; everything defaults to "no faults".
struct FaultPlan {
  double drop_rate = 0.0;       ///< P(message silently lost).
  double duplicate_rate = 0.0;  ///< P(message delivered twice).
  double corrupt_rate = 0.0;    ///< P(payload truncated or byte-flipped).
  double delay_rate = 0.0;      ///< P(delivery delayed) — event-driven only.
  double max_delay = 0.0;       ///< Extra delay bound, seconds (uniform).
  double crash_rate = 0.0;      ///< P(node crash-restart) per node per round.
  /// Number of disjoint overlay partitions (0 or 1 = no partition). Nodes
  /// are assigned to partitions by a stateless hash of the plan seed, and
  /// aggregation messages crossing a partition boundary are blocked.
  std::size_t partition_count = 0;
  Round partition_start = 0;  ///< First round the partition is active.
  /// Rounds until the partition heals (0 = never heals).
  Round partition_heal_after = 0;
  /// Fault-stream seed, deliberately independent of the engine seed so the
  /// same simulation can be replayed under different fault schedules.
  std::uint64_t seed = 0xfa171;
  /// When true, a crash-restarted node rejoins *warm*: its protocol state is
  /// checkpointed through the NodeAgent save/restore hooks (host::snapshot)
  /// and handed to the replacement agent, instead of the default cold
  /// restart that loses all instance state. Pure behaviour switch — it
  /// consumes no draws from any stream, so the crash schedule itself is
  /// identical warm or cold.
  bool warm_restart = false;

  /// Field-by-field equality: a snapshot resumes only under the exact plan
  /// that produced it.
  bool operator==(const FaultPlan&) const = default;

  /// True when any fault can ever fire.
  [[nodiscard]] bool enabled() const noexcept {
    return message_faults() || crash_rate > 0.0 || partition_count > 1;
  }

  /// True when any per-message fault can fire (drop/corrupt/duplicate/delay).
  [[nodiscard]] bool message_faults() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
           (delay_rate > 0.0 && max_delay > 0.0);
  }
};

/// Outcome of one message leg. Exactly one fate per leg: drop wins over
/// corruption wins over duplication (a dropped message cannot also arrive
/// twice).
enum class MessageFate : std::uint8_t {
  kDeliver = 0,
  kDrop = 1,
  kCorrupt = 2,
  kDuplicate = 3,
};

class FaultInjector {
 public:
  FaultInjector() = default;  ///< Disabled: every query answers "no fault".
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool enabled() const noexcept { return plan_.enabled(); }

  /// Derives node `id`'s dedicated fault stream. Stateless — computed from
  /// (plan seed, id) only, never drawn from an engine stream, so seeding it
  /// at spawn time cannot perturb any existing random sequence.
  [[nodiscard]] rng::Rng node_stream(NodeId id) const noexcept;

  /// Draws the fate of one message leg from `stream`. Consumes exactly
  /// three draws when any message fault is enabled and zero otherwise, so
  /// the draw count never depends on the outcome.
  [[nodiscard]] MessageFate message_fate(rng::Rng& stream) const noexcept;

  /// Extra delivery delay in seconds (0.0 = not delayed). Consumes one draw
  /// when delay faults are enabled, plus one more when the message is
  /// actually delayed.
  [[nodiscard]] double extra_delay(rng::Rng& stream) const noexcept;

  /// Whether the node owning `stream` crash-restarts this round. Consumes
  /// one draw when crash faults are enabled, zero otherwise. The restart
  /// itself is restart_agent (below).
  [[nodiscard]] bool crashes(rng::Rng& stream) const noexcept;

  /// Returns a mangled copy of `bytes`: truncated at a random offset or with
  /// 1–4 random bytes flipped (never a byte-identical copy unless empty).
  /// The receiver's wire validation walk must reject or cleanly survive the
  /// result — fuzz-backed by the chaos suite.
  [[nodiscard]] std::vector<std::byte> corrupt(std::span<const std::byte> bytes,
                                               rng::Rng& stream) const;

  /// Whether the partition is active at `round`.
  [[nodiscard]] bool partition_active(Round round) const noexcept;

  /// Partition index of node `id` (stable for the plan's lifetime). Pure
  /// function of (plan seed, id): no RNG state is consumed, so partition
  /// checks are schedule-independent.
  [[nodiscard]] std::size_t partition_of(NodeId id) const noexcept;

  /// True when a message between `a` and `b` is blocked at `round`.
  [[nodiscard]] bool partitioned(NodeId a, NodeId b, Round round) const noexcept;

 private:
  FaultPlan plan_{};
};

/// The crash-restart agent swap every substrate shares. Replaces `agent` with
/// a fresh one from `factory`. With `warm` (FaultPlan::warm_restart) the
/// crashed agent's protocol state is saved through the host::snapshot hooks
/// and restored into the replacement; an agent type that cannot save
/// restarts cold. `context` builds the factory's context and is told
/// whether the state is carried, so a substrate can adjust the node for a
/// cold restart first (the simulators move its birth round). Throws
/// std::runtime_error when the factory returns null or the replacement
/// rejects the blob, which leaves `agent` in place. Draws nothing: the crash
/// schedule is the same warm or cold.
void restart_agent(std::unique_ptr<NodeAgent>& agent, bool warm,
                   const AgentFactory& factory,
                   const std::function<AgentContext(bool)>& context);

}  // namespace adam2::host
