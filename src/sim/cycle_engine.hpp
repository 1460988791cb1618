// Cycle-driven gossip simulation engine (PeerSim-equivalent substrate).
//
// Execution model per round, matching §IV and PeerSim's cycle-driven mode:
//   1. round start — every live agent gets on_round_start (TTL bookkeeping,
//      instance creation). Sharded: an agent only touches its own node's
//      state and reads host/overlay state that is immutable this phase;
//   2. maintenance — serial: the overlay's peer-sampling shuffles mutate
//      shared views;
//   3. exchanges   — every live node, in an order shuffled from the global
//      stream, initiates one gossip exchange with an overlay-chosen
//      neighbour: request -> response, both as encoded byte buffers with
//      traffic accounted; dead targets count as failed contacts; the fault
//      plan can drop, duplicate or corrupt either direction;
//   4. crashes     — serial: fault-plan crash-restarts, warm or cold;
//   5. churn       — serial: a configured fraction of nodes is replaced with
//      fresh ones (the model of §VII-G), each bootstrapped by a live
//      neighbour;
//   6. round end   — an attached obs::Recorder captures the settled state.
//
// Random-stream discipline (the key to thread-count independence):
//
//  * the global engine stream (`rng_`) is consumed only in serial phases —
//    overlay maintenance, the exchange-order shuffle, churn victim/attribute
//    draws, node-stream derivation;
//  * each node's agent stream (`Node::rng`) is consumed only inside that
//    node's agent callbacks;
//  * each node's control stream (`Node::pick_rng`) is consumed only for
//    engine decisions about that node — exactly one gossip-target pick per
//    live node per round (drawn before make_request, whether or not the
//    agent stays silent), plus bootstrap contact picks at join time;
//  * each node's fault stream (`Node::fault_rng`) is consumed only for the
//    fates of the exchanges it initiates and its own crash draw.
//
// No stream is shared between nodes inside the exchange phase, so the
// phase may run in any schedule that keeps each node's exchanges in plan
// order. With one thread the engine picks each target right before its
// exchange. With more, it draws every target first and hands one unit per
// initiator to host::WorkerPool::run_gated, whose gate runs the units that
// share a participant in plan order. A seed therefore gives bit-identical
// results at any thread count (golden replay tests).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/fault.hpp"
#include "host/node.hpp"
#include "host/pool.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "obs/recorder.hpp"
#include "sim/overlay.hpp"
#include "sim/population.hpp"

namespace adam2::sim {

struct EngineConfig {
  /// Fraction of live nodes replaced per round (0.001 = the paper's typical
  /// churn of 0.1% per round, §VII-G).
  double churn_rate = 0.0;
  /// Master seed; every node and subsystem derives its stream from it.
  std::uint64_t seed = 0xada2;
  /// Deterministic fault schedule (drop/duplicate/corrupt/crash/partition);
  /// `faults.drop_rate` is the one message-loss knob. The default all-zero
  /// plan draws nothing and changes nothing — runs are bit-identical to an
  /// engine without fault support.
  host::FaultPlan faults;
};

/// With a recorder attached, the engine records round begin/end, every
/// exchange outcome in plan order, crash-restarts and churn
/// joins/departures — identically at any thread count (DESIGN.md §11).
class CycleEngine final : public Population {
 public:
  /// Creates `initial_attributes.size()` nodes with those attribute values,
  /// builds the overlay over them, and instantiates one agent per node.
  /// `attribute_source` supplies values for churned-in nodes; pass nullptr
  /// only if churn_rate == 0. `threads` is the worker count of the sharded
  /// phases; 0 and 1 both run everything on the calling thread.
  CycleEngine(EngineConfig config, std::vector<stats::Value> initial_attributes,
              std::unique_ptr<host::Overlay> overlay,
              host::AgentFactory agent_factory,
              host::AttributeSource attribute_source, std::size_t threads = 1);
  ~CycleEngine() override = default;

  /// Advances the simulation by one gossip cycle.
  void run_round();
  void run_rounds(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) run_round();
  }

  /// Worker threads of the sharded phases (1 = all inline).
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

  [[nodiscard]] host::Round round() const override { return round_; }

  // -- Experiment control (the rest is Population's) ----------------------
  /// Updates a node's attribute (dynamic-attribute scenarios, §VII-F).
  void set_attribute(host::NodeId id, stats::Value value) {
    table_.set_attribute(id, value);
  }

  /// Count of all nodes ever created (live + departed).
  [[nodiscard]] std::size_t nodes_ever() const { return table_.size(); }

  /// Immediately replaces `count` random live nodes (manual churn trigger,
  /// also used by failure-injection tests), and removes one specific node
  /// (targeted failure injection).
  using Population::churn_nodes;
  using Population::kill_node;

  // -- Checkpoint / resume (host::snapshot, DESIGN.md §12) -----------------

  /// Serialises the engine's complete deterministic state (config echo,
  /// round counter, global stream, traffic ledger, every node record with
  /// its three streams and agent blob, the overlay) into one versioned
  /// snapshot. The thread count is not part of it: the workers hold only
  /// per-round scratch. Throws host::snapshot::SnapshotError when an
  /// attached agent or overlay type has no snapshot support.
  [[nodiscard]] std::vector<std::byte> save_snapshot() const;

  /// Restores a snapshot produced by save_snapshot on an engine built with
  /// the same configuration (any thread count). Resume + run-to-round-R is
  /// bit-identical to the uninterrupted run (golden-resume fixtures).
  /// Throws wire::DecodeError on any malformed or mismatched input, leaving
  /// the engine untouched.
  void restore_snapshot(std::span<const std::byte> bytes);

 private:
  /// The exchange at plan position `position`: `initiator` towards the
  /// pre-picked `target` (request -> response, fault fates and
  /// failed-contact accounting). Every draw comes from the initiator's
  /// streams, so the unit touches only the two participants' state plus
  /// `totals()` (and its outcome slot when a recorder is attached).
  void exchange(std::size_t position, host::Node& initiator,
                const std::optional<host::NodeId>& target);

  /// Sharded exchange phase: draws every initiator's target, then runs one
  /// gated unit per initiator on the pool.
  void run_gated_exchanges();

  /// Ends a sharded phase: folds the worker slots into the global totals
  /// (commutative integer sums, so the result does not depend on which
  /// worker counted what).
  void merge_worker_totals();

  EngineConfig config_;
  host::Round round_ = 0;

  host::WorkerPool pool_;
  std::vector<host::TrafficStats> worker_totals_;  // One slot per worker.

  // Per-round exchange plan: shuffled initiation order, pre-drawn targets
  // and the participants' ids as gate slots (sharded only; 2 per unit:
  // initiator, target).
  std::vector<host::NodeId> order_;
  std::vector<std::optional<host::NodeId>> targets_;
  std::vector<std::uint32_t> unit_slots_;

  // Exchange-outcome slots, one per plan position, used only with a
  // recorder attached: each unit fills its own slot and the main thread
  // drains them in plan order after the phase (the pool join publishes the
  // writes), so the recorded stream is the same at any thread count.
  std::vector<obs::ExchangeOutcome> outcomes_;
};

}  // namespace adam2::sim
