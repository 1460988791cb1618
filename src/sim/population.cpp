#include "sim/population.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "host/bootstrap.hpp"
#include "host/churn.hpp"
#include "host/snapshot.hpp"

namespace adam2::sim {

namespace snap = host::snapshot;

Population::Population(const host::FaultPlan& faults, std::uint64_t seed,
                       std::unique_ptr<host::Overlay> overlay,
                       host::AgentFactory agent_factory,
                       host::AttributeSource attribute_source, bool churns)
    : conduit_(faults),
      rng_(seed),
      overlay_(std::move(overlay)),
      agent_factory_(std::move(agent_factory)),
      attribute_source_(std::move(attribute_source)) {
  if (!overlay_) throw std::invalid_argument("engine requires an overlay");
  if (!agent_factory_) {
    throw std::invalid_argument("engine requires an agent factory");
  }
  if (churns && !attribute_source_) {
    throw std::invalid_argument("churn requires an attribute source");
  }
}

void Population::populate(std::span<const stats::Value> initial_attributes) {
  table_.reserve(initial_attributes.size());
  for (stats::Value value : initial_attributes) {
    spawn_node(value, /*bootstrap=*/false);
  }
  overlay_->build_initial(table_.live_ids(), *this, rng_);
}

void Population::spawn_node(stats::Value attribute, bool bootstrap) {
  const host::Round now = round();
  host::Node& stored =
      table_.spawn(attribute, bootstrap ? now + 1 : now, rng_);
  // Stateless derivation: consumes nothing from rng_, so seeding the fault
  // stream preserves bit-identity with pre-fault engines.
  stored.fault_rng = conduit_.faults().node_stream(stored.id);
  host::AgentContext ctx = host::make_context(*this, *overlay_, stored, now);
  stored.agent = agent_factory_(ctx);
  if (!stored.agent) throw std::runtime_error("agent factory returned null");

  if (!bootstrap) return;

  overlay_->add_node(stored.id, *this, rng_);
  host::bootstrap_joiner(stored, table_, *overlay_, *this, now,
                         total_traffic_);
  on_join(stored.id);
  // Initial-population spawns happen before a recorder can be attached, so
  // only churn-in joins ever reach the trace.
  if (recorder_ != nullptr) recorder_->node_join(now, stored.id);
}

void Population::kill_node(host::NodeId id) {
  if (!table_.is_live(id)) {
    (void)table_.at(id);  // Preserve the out_of_range on unknown ids.
    return;
  }
  overlay_->remove_node(id);
  table_.kill(id);
  on_agent_reset(id);
  if (recorder_ != nullptr) recorder_->node_depart(round(), id);
}

void Population::churn_nodes(std::size_t count) {
  count = std::min(count, table_.live_count());
  for (std::size_t i = 0; i < count; ++i) {
    kill_node(table_.random_live(rng_));
  }
  if (!attribute_source_) return;
  for (std::size_t i = 0; i < count; ++i) {
    spawn_node(attribute_source_(rng_), /*bootstrap=*/true);
  }
}

void Population::finish_round(double churn_rate) {
  restart_crashed();
  if (churn_rate > 0.0 && table_.live_count() > 0) {
    const double expected =
        churn_rate * static_cast<double>(table_.live_count());
    // stochastic_count rounds its fractional part up probabilistically, so
    // with rates >= 1.0 (or a table shrunk mid-round by kill_node) it can
    // exceed the live population; churn_nodes never takes more than exists.
    churn_nodes(host::stochastic_count(expected, rng_));
  }
  if (recorder_ != nullptr) {
    recorder_->round_end(round(), table_.live_count(), table_.size(),
                         total_traffic_);
  }
}

void Population::restart_crashed() {
  const host::FaultInjector& faults = conduit_.faults();
  if (faults.plan().crash_rate <= 0.0) return;
  const host::Round now = round();
  for (host::NodeId id : table_.live_ids()) {
    host::Node& n = table_.at(id);
    if (!faults.crashes(n.fault_rng)) continue;
    // Identity, attribute and overlay links survive the crash; whatever the
    // old agent had in flight dies with it. Two captures keep the closure
    // in std::function's small buffer, so a restart allocates only the new
    // agent.
    host::restart_agent(n.agent, faults.plan().warm_restart, agent_factory_,
                        [this, &n](bool warm) {
                          if (!warm) n.birth_round = round() + 1;
                          return host::make_context(*this, *overlay_, n,
                                                    round());
                        });
    on_agent_reset(id);
    ++total_traffic_.crash_restarts;
    if (recorder_ != nullptr) recorder_->crash_restart(now, id);
  }
}

void Population::save_population(snap::SnapshotWriter& writer) const {
  writer.begin_section(snap::kSectionNodes);
  snap::write_node_table(writer.out(), table_);
  writer.end_section();

  writer.begin_section(snap::kSectionOverlay);
  const std::uint32_t overlay_kind = overlay_->snapshot_kind();
  if (overlay_kind == 0) {
    throw snap::SnapshotError("overlay type does not support snapshotting");
  }
  writer.out().u32(overlay_kind);
  overlay_->save_state(writer.out());
  writer.end_section();
}

host::NodeTable Population::read_nodes(wire::Reader& nodes,
                                       host::Round round) {
  host::NodeTable scratch;
  snap::read_node_table(nodes, scratch, [&](host::Node& n) {
    host::AgentContext ctx = host::make_context(*this, *overlay_, n, round);
    return agent_factory_(ctx);
  });
  nodes.expect_done();
  return scratch;
}

void Population::install(wire::Reader& overlay, host::NodeTable table,
                         const rng::Rng& global,
                         const host::TrafficStats& totals,
                         std::span<const std::byte> bytes,
                         const std::function<void()>& commit) {
  if (overlay.u32() != overlay_->snapshot_kind()) {
    throw wire::DecodeError("snapshot overlay kind mismatch");
  }
  // Transactional (host/overlay.hpp).
  overlay_->restore_state(overlay, table);

  table_ = std::move(table);
  rng_ = global;
  total_traffic_ = totals;
  commit();
  if (recorder_ != nullptr) {
    recorder_->manifest().set("resume_round",
                              static_cast<std::uint64_t>(round()));
    recorder_->manifest().set("resume_digest", snap::fnv1a(bytes));
  }
}

}  // namespace adam2::sim
