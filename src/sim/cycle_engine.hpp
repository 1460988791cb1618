// Cycle-driven gossip simulation engine (PeerSim-equivalent substrate).
//
// Execution model per round, matching §IV and PeerSim's cycle-driven mode:
//   1. round start — every live agent gets on_round_start (TTL bookkeeping,
//      instance creation). Sharded: an agent only touches its own node's
//      state and reads host/overlay state that is immutable this phase;
//   2. maintenance — the overlay's peer-sampling shuffles
//      (host::Overlay::maintain on the pool): an in-order walk decides each
//      shuffle, and the workers apply them;
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
//  * the global engine stream (`rng_`) is drawn only in serial phases and by
//    the in-order walks of host::WorkerPool::run_ordered — overlay
//    maintenance's decisions, the exchange-order shuffle, churn
//    victim/attribute draws, node-stream derivation;
//  * each node's agent stream (`Node::rng`) is consumed only inside that
//    node's agent callbacks;
//  * each node's control stream (`Node::pick_rng`) is consumed only for
//    engine decisions about that node — exactly one gossip-target pick per
//    live node per round (drawn before make_request, whether or not the
//    agent stays silent), plus bootstrap contact picks at join time;
//  * each node's fault stream (`Node::fault_rng`) is consumed only for the
//    fates of the exchanges it initiates and its own crash draw.
//
// Phases 2 and 3 run on host::WorkerPool::run_ordered: one walk decides
// the units in plan order (a shuffle's masks, an exchange's target) and
// claims the participants each unit touches; the workers apply the units.
// A claim waits until the participant's previous unit has been applied, so
// every node sees its shuffles and exchanges in plan order, and every draw
// happens in the one-worker order. With one worker, each unit is decided
// and applied back to back. A seed therefore gives bit-identical results
// at any thread count (golden replay tests).
//
// The serial walks wait on memory more than they compute at large N, so
// they load ahead without moving a draw or a write. The exchange walk draws
// each target kPickAhead units before it decides the unit (only the walk
// touches a control stream, and the overlay is frozen after maintenance)
// and prefetches both node records then. On one worker, both walks also
// pass a look-ahead step (WorkerPool::run_ordered's `ahead`): Cyclon's
// prefetches the views and value caches its shuffles are about to touch;
// the exchange walk's loads both agents' state, one level per stage, in
// rounds after one whose exchanges carried payloads.
#pragma once

#include <array>
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
  EngineConfig config_;
  host::Round round_ = 0;

  host::WorkerPool pool_;
  // One traffic slot per worker: each exchange counts into its worker's
  // slot, and the phase's end folds them into the ledger.
  std::vector<host::TrafficStats> worker_totals_;

  // Per-round exchange plan: the initiators in the order shuffled from the
  // global stream, and a ring of the targets the walk picked for the
  // exchanges not yet run, kPickAhead of them not yet decided (position p
  // in entry p % size; WorkerPool::pending_limit() + kPickAhead entries).
  // `picked_` counts the positions whose target is drawn.
  std::vector<host::NodeId> order_;
  std::vector<std::optional<host::NodeId>> targets_;
  std::size_t picked_ = 0;
  // The look-ahead's note, per unit in flight, of whether its initiator
  // holds exchange state (NodeAgent::prefetch).
  std::array<bool, host::WorkerPool::kLookAhead> sends_{};
  // Whether the last exchange phase carried payloads (look_ahead's gate).
  bool payload_round_ = false;

  [[nodiscard]] std::optional<host::NodeId>& target_of(std::size_t p);
  /// The exchange walk's look-ahead (WorkerPool::run_ordered's `ahead`,
  /// one worker only): loads, stage by stage, what the exchanges of the
  /// units just before unit `u` will read. Writes nothing but sends_.
  void look_ahead(std::size_t u);

  // Exchange-outcome slots, one per plan position, used only with a
  // recorder attached: each unit fills its own slot and the main thread
  // drains them in plan order after the phase (the pool join publishes the
  // writes), so the recorded stream is the same at any thread count.
  std::vector<obs::ExchangeOutcome> outcomes_;
};

}  // namespace adam2::sim
