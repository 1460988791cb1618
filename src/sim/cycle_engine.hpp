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

#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/node.hpp"
#include "host/pool.hpp"
#include "host/registry.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "host/agent.hpp"
#include "sim/overlay.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"

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

class CycleEngine final : public host::HostView {
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

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  /// Advances the simulation by one gossip cycle.
  void run_round();
  void run_rounds(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) run_round();
  }

  /// Worker threads of the sharded phases (1 = all inline).
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

  // -- HostView ----------------------------------------------------------
  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return table_.is_live(id);
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return table_.attribute_of(id);
  }
  [[nodiscard]] host::Round round() const override { return round_; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return table_.live_ids();
  }
  void record_traffic(host::NodeId sender, host::NodeId receiver,
                      host::Channel channel, std::size_t bytes) override;

  // -- Introspection / experiment control --------------------------------
  [[nodiscard]] std::size_t live_count() const { return table_.live_count(); }
  [[nodiscard]] host::NodeAgent& agent(host::NodeId id) {
    return *table_.at(id).agent;
  }
  [[nodiscard]] const host::Node& node(host::NodeId id) const {
    return table_.at(id);
  }
  [[nodiscard]] host::Node& mutable_node(host::NodeId id) {
    return table_.at(id);
  }
  [[nodiscard]] host::Overlay& overlay() { return *overlay_; }
  [[nodiscard]] rng::Rng& rng() { return rng_; }
  [[nodiscard]] const host::FaultInjector& fault_injector() const {
    return conduit_.faults();
  }
  [[nodiscard]] host::NodeId random_live_node() {
    return table_.random_live(rng_);
  }

  /// Attribute values of all live nodes (the ground truth population).
  [[nodiscard]] std::vector<stats::Value> live_attribute_values() const {
    return table_.live_attribute_values();
  }

  /// Updates a node's attribute (dynamic-attribute scenarios, §VII-F).
  void set_attribute(host::NodeId id, stats::Value value) {
    table_.set_attribute(id, value);
  }

  /// Global traffic totals (sums over all nodes, including departed ones).
  [[nodiscard]] const host::TrafficStats& total_traffic() const {
    return total_traffic_;
  }

  /// Count of all nodes ever created (live + departed).
  [[nodiscard]] std::size_t nodes_ever() const { return table_.size(); }

  /// Attaches the observability recorder (nullptr detaches) — the engine's
  /// one per-round hook. Not owned; must outlive the engine. With no
  /// recorder the engine executes the exact pre-obs instruction stream
  /// (every hook is null-checked), so detached runs stay bit-identical and
  /// allocation-free. With one attached, the engine records round
  /// begin/end, every exchange outcome in plan order, crash-restarts and
  /// churn joins/departures — identically at any thread count
  /// (DESIGN.md §11).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Builds the context for a direct agent call from experiment drivers
  /// (e.g. to start a scripted aggregation instance on a chosen node).
  [[nodiscard]] host::AgentContext context_for(host::NodeId id) {
    return host::make_context(*this, *overlay_, table_.at(id), round_);
  }

  /// Immediately replaces `count` random live nodes (manual churn trigger,
  /// also used by failure-injection tests).
  void churn_nodes(std::size_t count);

  /// Removes one specific node (targeted failure injection).
  void kill_node(host::NodeId id);

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
  /// Creates a node; `bootstrap` runs the join-time state transfer and marks
  /// the node born next round (churned-in nodes arrive at the end of the
  /// current round, so instances started this round must not count them).
  void spawn_node(stats::Value attribute, bool bootstrap);

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

  /// Stochastic churn at config_.churn_rate (serial phase).
  void apply_churn();

  /// Fault-plan crash-restarts (serial phase, after the exchanges) through
  /// host::restart_agent: each crashing node keeps its identity, attribute
  /// and overlay links. A cold restart loses all agent state and rejoins
  /// next round like a churned-in newcomer; a warm one (plan.warm_restart)
  /// carries the state and its birth round across. The crash draw comes
  /// from the node's own fault stream, so the schedule is identical at any
  /// thread count.
  void apply_crashes();

  /// The traffic accumulator of the calling thread: its worker's slot while
  /// it runs a sharded-phase task, the global totals otherwise.
  [[nodiscard]] host::TrafficStats& totals();
  /// Ends a sharded phase: folds the worker slots into the global totals
  /// (commutative integer sums, so the result does not depend on which
  /// worker counted what).
  void merge_worker_totals();

  EngineConfig config_;
  /// The shared exchange fabric: owns partitions and the whole fault-fate
  /// pipeline (host/exchange.hpp). The engine only schedules.
  host::Conduit conduit_;
  rng::Rng rng_;
  std::unique_ptr<host::Overlay> overlay_;
  host::AgentFactory agent_factory_;
  host::AttributeSource attribute_source_;
  host::NodeTable table_;
  host::Round round_ = 0;
  host::TrafficStats total_traffic_;
  obs::Recorder* recorder_ = nullptr;

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
