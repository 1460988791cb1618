// The node population both simulators stand on.
//
// CycleEngine and AsyncEngine schedule differently (synchronised rounds
// against an event queue), but they host the same population: the node
// table, the overlay over it, the agent factory and attribute source, the
// fault plan's conduit, the global stream and the one traffic ledger.
// Population owns all of it and implements the node lifecycle once:
// construction, spawning (with the join-time bootstrap for churned-in
// nodes), removal, churn, crash restarts, and the Nodes and Overlay
// sections of a snapshot. Each engine derives from it and adds only its
// scheduler and its own round().
//
// Draw discipline: every lifecycle draw comes from the global stream in a
// fixed order (churn draws all victims, then spawns each newcomer: its
// attribute, its node streams and its overlay links), from the joiner's
// control stream (bootstrap contacts), or from a node's fault stream (its
// crash draw). Nothing here depends on the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/node.hpp"
#include "host/overlay.hpp"
#include "host/registry.hpp"
#include "host/traffic.hpp"
#include "host/types.hpp"
#include "host/view.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "wire/buffer.hpp"

namespace adam2::host::snapshot {
class SnapshotWriter;
}  // namespace adam2::host::snapshot

namespace adam2::sim {

class Population : public host::HostView {
 public:
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  // -- HostView (round() is the engine's) --------------------------------
  [[nodiscard]] bool is_live(host::NodeId id) const final {
    return table_.is_live(id);
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const final {
    return table_.attribute_of(id);
  }
  void prefetch_node(host::NodeId id) const final {
    if (id < table_.size()) __builtin_prefetch(&table_.at(id).attribute);
  }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const final {
    return table_.live_ids();
  }
  /// Counts straight into the run's ledger. Its only callers, Cyclon's walk
  /// decision and the event-driven engine, run serially; the cycle engine's
  /// exchanges count into per-worker slots instead.
  void record_traffic(host::Channel channel, std::size_t bytes) final {
    total_traffic_.record_message(channel, bytes);
  }

  // -- Introspection / experiment control --------------------------------
  [[nodiscard]] std::size_t live_count() const { return table_.live_count(); }
  [[nodiscard]] host::NodeAgent& agent(host::NodeId id) {
    return *table_.at(id).agent;
  }
  [[nodiscard]] const host::Node& node(host::NodeId id) const {
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

  /// Removes one node from the overlay and the table (targeted failure
  /// injection; no-op when it is already dead; std::out_of_range for
  /// unknown ids).
  void kill_node(host::NodeId id);

  /// Replaces `count` random live nodes (at most the live count): every
  /// victim is removed first, then every newcomer spawned. Without an
  /// attribute source it only removes. Experiments and failure-injection
  /// tests call it as a manual churn trigger.
  void churn_nodes(std::size_t count);

  /// Attribute values of all live nodes (the ground truth population).
  [[nodiscard]] std::vector<stats::Value> live_attribute_values() const {
    return table_.live_attribute_values();
  }

  /// Global traffic totals (sums over all nodes, including departed ones).
  [[nodiscard]] const host::TrafficStats& total_traffic() const {
    return total_traffic_;
  }

  /// Builds the context for a direct agent call from experiment drivers
  /// (e.g. to start a scripted aggregation instance on a chosen node).
  [[nodiscard]] host::AgentContext context_for(host::NodeId id) {
    return host::make_context(*this, *overlay_, table_.at(id), round());
  }

  /// Attaches the observability recorder (nullptr detaches) — the engines'
  /// one hook. Not owned; must outlive the engine. With no recorder every
  /// hook is null-checked away, so detached runs execute the pre-obs
  /// instruction stream (DESIGN.md §11).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 protected:
  /// Checks the arguments (an overlay, a factory, and an attribute source
  /// when the engine `churns`). The engine calls populate() once it is
  /// constructed, so the spawns see its round().
  Population(const host::FaultPlan& faults, std::uint64_t seed,
             std::unique_ptr<host::Overlay> overlay,
             host::AgentFactory agent_factory,
             host::AttributeSource attribute_source, bool churns);
  ~Population() override = default;

  /// Spawns one node per initial attribute, then builds the overlay over
  /// them.
  void populate(std::span<const stats::Value> initial_attributes);

  /// The serial end of a round (cycle engine) or maintenance cycle
  /// (event-driven engine): fault-plan crash restarts, then churn of
  /// `churn_rate` of the live nodes in expectation, then the recorder's
  /// round-end sample of the settled state.
  void finish_round(double churn_rate);

  /// Engine-local steps at fixed points of the lifecycle; no-ops by default.
  /// on_join runs after a churned-in node was wired in and bootstrapped,
  /// before its join is recorded; on_agent_reset after a node departed or
  /// its agent restarted.
  virtual void on_join(host::NodeId /*id*/) {}
  virtual void on_agent_reset(host::NodeId /*id*/) {}

  // -- Checkpoint / resume (host::snapshot, DESIGN.md §12) -----------------

  /// Writes the Nodes and Overlay sections. Throws
  /// host::snapshot::SnapshotError when an agent or the overlay type has no
  /// snapshot support.
  void save_population(host::snapshot::SnapshotWriter& writer) const;

  /// Restore, first half: parses a Nodes section into a scratch table,
  /// building each live node's agent at `round`. Changes nothing here.
  [[nodiscard]] host::NodeTable read_nodes(wire::Reader& nodes,
                                           host::Round round);

  /// Restore, second half: checks the Overlay section's kind and restores
  /// the overlay against `table` (transactional; both throw
  /// wire::DecodeError before anything changes). Then installs the table,
  /// the global stream and the traffic totals, runs `commit` to install the
  /// engine's own parsed state, and records the resume point of `bytes` in
  /// an attached recorder's manifest.
  void install(wire::Reader& overlay, host::NodeTable table,
               const rng::Rng& global, const host::TrafficStats& totals,
               std::span<const std::byte> bytes,
               const std::function<void()>& commit);

  /// The shared exchange fabric: owns partitions and the whole fault-fate
  /// pipeline (host/exchange.hpp). The engines only schedule.
  host::Conduit conduit_;
  rng::Rng rng_;
  std::unique_ptr<host::Overlay> overlay_;
  host::NodeTable table_;
  host::TrafficStats total_traffic_;
  obs::Recorder* recorder_ = nullptr;

 private:
  /// Creates a node at round(). A `bootstrap` node arrives at the end of the
  /// current round (born next round, so instances started this round do not
  /// count it), is wired into the overlay and runs the join-time state
  /// transfer (§IV, DESIGN §1 decision 4).
  void spawn_node(stats::Value attribute, bool bootstrap);

  /// Fault-plan crash-restarts through host::restart_agent: each crashing
  /// node keeps its identity, attribute and overlay links. A cold restart
  /// loses all agent state and moves birth_round to the next round, so the
  /// node ignores instances started before the crash; a warm one
  /// (plan.warm_restart) carries the state and its birth round across. The
  /// crash draw comes from the node's own fault stream.
  void restart_crashed();

  host::AgentFactory agent_factory_;
  host::AttributeSource attribute_source_;
};

}  // namespace adam2::sim
