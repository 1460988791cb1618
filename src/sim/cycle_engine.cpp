#include "sim/cycle_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "host/bootstrap.hpp"
#include "host/churn.hpp"
#include "host/snapshot.hpp"

namespace adam2::sim {
namespace {

namespace snap = host::snapshot;

/// The calling thread's traffic accumulator while it runs a sharded-phase
/// task; null otherwise (see CycleEngine::totals).
thread_local host::TrafficStats* tls_totals = nullptr;

/// Points the calling thread's accumulator at a worker slot for one task and
/// unbinds it on exit, exceptions included, so no thread keeps a pointer
/// into an engine between phases.
class WorkerBinding {
 public:
  explicit WorkerBinding(host::TrafficStats& slot) { tls_totals = &slot; }
  ~WorkerBinding() { tls_totals = nullptr; }
  WorkerBinding(const WorkerBinding&) = delete;
  WorkerBinding& operator=(const WorkerBinding&) = delete;
};

}  // namespace

CycleEngine::CycleEngine(EngineConfig config,
                         std::vector<stats::Value> initial_attributes,
                         std::unique_ptr<host::Overlay> overlay,
                         host::AgentFactory agent_factory,
                         host::AttributeSource attribute_source,
                         std::size_t threads)
    : config_(config),
      conduit_(config.faults),
      rng_(config.seed),
      overlay_(std::move(overlay)),
      agent_factory_(std::move(agent_factory)),
      attribute_source_(std::move(attribute_source)),
      pool_(threads),
      worker_totals_(pool_.size()) {
  if (!overlay_) throw std::invalid_argument("engine requires an overlay");
  if (!agent_factory_) {
    throw std::invalid_argument("engine requires an agent factory");
  }
  if (config_.churn_rate > 0.0 && !attribute_source_) {
    throw std::invalid_argument("churn requires an attribute source");
  }

  table_.reserve(initial_attributes.size());
  for (stats::Value value : initial_attributes) {
    spawn_node(value, /*bootstrap=*/false);
  }
  overlay_->build_initial(table_.live_ids(), *this, rng_);
}

void CycleEngine::record_traffic(host::NodeId sender, host::NodeId receiver,
                                 host::Channel channel, std::size_t bytes) {
  table_.record_traffic(sender, receiver, channel, bytes, totals());
}

host::TrafficStats& CycleEngine::totals() {
  return tls_totals != nullptr ? *tls_totals : total_traffic_;
}

void CycleEngine::merge_worker_totals() {
  for (host::TrafficStats& slot : worker_totals_) {
    total_traffic_ += slot;
    slot = host::TrafficStats{};
  }
}

void CycleEngine::run_round() {
  if (recorder_ != nullptr) recorder_->round_begin(round_, table_.live_count());

  // 1. Round start for every live agent (sharded).
  const auto live = table_.live_ids();
  pool_.run_indexed(live.size(), [&](std::size_t i, std::size_t worker) {
    const WorkerBinding binding(worker_totals_[worker]);
    host::Node& n = table_.at(live[i]);
    host::AgentContext ctx = host::make_context(*this, *overlay_, n, round_);
    n.agent->on_round_start(ctx);
  });
  merge_worker_totals();

  // 2. Overlay maintenance (serial: shuffles mutate shared views).
  overlay_->maintain(*this, rng_);

  // 3. One exchange per live node, in an order shuffled from the global
  //    stream. With a recorder attached every exchange fills its plan
  //    position's outcome slot; draining them in order afterwards gives the
  //    same record stream at any thread count.
  const auto initiators = table_.live_ids();
  order_.assign(initiators.begin(), initiators.end());
  rng_.shuffle(order_);
  if (recorder_ != nullptr) outcomes_.assign(order_.size(), {});
  if (pool_.size() == 1) {
    // Each target is picked right before its exchange, from the initiator's
    // control stream: the draws the sharded path makes up front.
    for (std::size_t p = 0; p < order_.size(); ++p) {
      host::Node& initiator = table_.at(order_[p]);
      exchange(p, initiator,
               overlay_->pick_gossip_target(order_[p], initiator.pick_rng));
    }
  } else {
    run_gated_exchanges();
  }
  if (recorder_ != nullptr) {
    for (const obs::ExchangeOutcome& outcome : outcomes_) {
      recorder_->exchange(round_, outcome);
    }
  }

  // 4. Fault-plan crash-restarts (no-op without a plan).
  apply_crashes();

  // 5. Churn.
  apply_churn();

  // 6. Round end: the recorder captures the settled state.
  if (recorder_ != nullptr) {
    recorder_->round_end(round_, table_.live_count(), table_.size(),
                         total_traffic_);
  }
  ++round_;
}

void CycleEngine::run_gated_exchanges() {
  const std::size_t units = order_.size();
  targets_.resize(units);
  pool_.run_indexed(units, [&](std::size_t p, std::size_t) {
    targets_[p] = overlay_->pick_gossip_target(order_[p],
                                               table_.at(order_[p]).pick_rng);
  });

  // Participants per unit: the initiator always; the target when the
  // exchange can actually reach it. (The conduit re-checks validity, so a
  // conservative mismatch here could only over-serialise, never diverge —
  // but liveness is frozen during this phase, so the check is exact.)
  unit_slots_.assign(2 * units, host::WorkerPool::kNoSlot);
  // A node's id is its slot in the gate.
  for (std::size_t p = 0; p < units; ++p) {
    unit_slots_[2 * p] = static_cast<std::uint32_t>(order_[p]);
    const std::optional<host::NodeId>& target = targets_[p];
    if (target && *target != order_[p] && table_.is_live(*target)) {
      unit_slots_[2 * p + 1] = static_cast<std::uint32_t>(*target);
    }
  }
  pool_.run_gated(unit_slots_, table_.size(),
                  [&](std::size_t p, std::size_t worker) {
                    const WorkerBinding binding(worker_totals_[worker]);
                    exchange(p, table_.at(order_[p]), targets_[p]);
                  });
  merge_worker_totals();
}

void CycleEngine::spawn_node(stats::Value attribute, bool bootstrap) {
  host::Node& stored =
      table_.spawn(attribute, bootstrap ? round_ + 1 : round_, rng_);
  // Stateless derivation: consumes nothing from rng_, so seeding the fault
  // stream preserves bit-identity with pre-fault engines.
  stored.fault_rng = conduit_.faults().node_stream(stored.id);
  host::AgentContext ctx = host::make_context(*this, *overlay_, stored, round_);
  stored.agent = agent_factory_(ctx);
  if (!stored.agent) throw std::runtime_error("agent factory returned null");

  if (!bootstrap) return;

  // Wire the newcomer into the overlay, then run the join-time state
  // transfer (§IV, DESIGN §1 decision 4).
  overlay_->add_node(stored.id, *this, rng_);
  host::bootstrap_joiner(stored, table_, *overlay_, *this, round_,
                         total_traffic_);
  // Initial-population spawns happen before a recorder can be attached, so
  // only churn-in joins (bootstrap) ever reach the trace (churn is a serial
  // phase at any thread count).
  if (recorder_ != nullptr) recorder_->node_join(round_, stored.id);
}

void CycleEngine::exchange(std::size_t position, host::Node& initiator,
                           const std::optional<host::NodeId>& target) {
  // The fabric owns the whole pipeline (partitions, fates, the
  // duplicate-delivery policy); the engine contributes only the traffic
  // accumulator, which sharded phases route per worker.
  conduit_.run_cycle_exchange(
      *this, *overlay_, table_, round_, initiator, target, totals(),
      recorder_ != nullptr ? &outcomes_[position] : nullptr);
}

void CycleEngine::apply_crashes() {
  const host::FaultInjector& faults = conduit_.faults();
  if (faults.plan().crash_rate <= 0.0) return;
  for (host::NodeId id : table_.live_ids()) {
    host::Node& n = table_.at(id);
    if (!faults.crashes(n.fault_rng)) continue;
    // Identity, attribute and overlay links survive the crash. A cold
    // restart also moves birth_round forward, so the restarted node ignores
    // instances started before the crash (they would otherwise absorb a
    // partial, state-free contribution); a warm one rejoins them.
    host::restart_agent(n.agent, faults.plan().warm_restart, agent_factory_,
                        [&](bool warm) {
                          if (!warm) n.birth_round = round_ + 1;
                          return host::make_context(*this, *overlay_, n,
                                                    round_);
                        });
    ++n.traffic.crash_restarts;
    ++total_traffic_.crash_restarts;
    if (recorder_ != nullptr) recorder_->crash_restart(round_, id);
  }
}

void CycleEngine::apply_churn() {
  if (config_.churn_rate <= 0.0 || table_.live_count() == 0) return;
  const double expected =
      config_.churn_rate * static_cast<double>(table_.live_count());
  // stochastic_count rounds its fractional part up probabilistically, so
  // with churn rates >= 1.0 (or a table shrunk mid-round by kill_node) it
  // can exceed the live population; never ask for more than exists.
  churn_nodes(
      std::min(host::stochastic_count(expected, rng_), table_.live_count()));
}

void CycleEngine::churn_nodes(std::size_t count) {
  count = std::min(count, table_.live_count());
  for (std::size_t i = 0; i < count; ++i) {
    kill_node(table_.random_live(rng_));
  }
  if (!attribute_source_) return;
  for (std::size_t i = 0; i < count; ++i) {
    spawn_node(attribute_source_(rng_), /*bootstrap=*/true);
  }
}

void CycleEngine::kill_node(host::NodeId id) {
  if (!table_.is_live(id)) {
    (void)table_.at(id);  // Preserve the out_of_range on unknown ids.
    return;
  }
  overlay_->remove_node(id);
  table_.kill(id);
  if (recorder_ != nullptr) recorder_->node_depart(round_, id);
}

std::vector<std::byte> CycleEngine::save_snapshot() const {
  snap::SnapshotWriter writer(snap::EngineKind::kCycle);

  writer.begin_section(snap::kSectionMeta);
  writer.out().f64(config_.churn_rate);
  writer.out().u64(config_.seed);
  snap::write_fault_plan(writer.out(), config_.faults);
  writer.end_section();

  writer.begin_section(snap::kSectionEngine);
  writer.out().u32(round_);
  snap::write_rng(writer.out(), rng_);
  snap::write_traffic(writer.out(), total_traffic_);
  writer.end_section();

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

  return writer.finish();
}

void CycleEngine::restore_snapshot(std::span<const std::byte> bytes) {
  snap::SnapshotReader reader(bytes, snap::EngineKind::kCycle);
  wire::Reader meta = reader.section(snap::kSectionMeta);
  wire::Reader engine = reader.section(snap::kSectionEngine);
  wire::Reader nodes = reader.section(snap::kSectionNodes);
  wire::Reader overlay = reader.section(snap::kSectionOverlay);
  reader.expect_end();

  // A snapshot only resumes under the exact configuration that produced it:
  // any divergence (different seed, rates, fault plan) would silently change
  // the replayed schedule, so mismatches reject instead.
  const double churn_rate = meta.f64();
  const std::uint64_t seed = meta.u64();
  const host::FaultPlan plan = snap::read_fault_plan(meta);
  meta.expect_done();
  if (churn_rate != config_.churn_rate || seed != config_.seed ||
      plan != config_.faults) {
    throw wire::DecodeError("snapshot engine config mismatch");
  }

  const host::Round round = engine.u32();
  rng::Rng global(0);
  snap::read_rng(engine, global);
  host::TrafficStats totals;
  snap::read_traffic(engine, totals);
  engine.expect_done();

  // Everything below parses into scratch state; the engine's own members are
  // only swapped once the whole snapshot (overlay included) validated.
  host::NodeTable scratch;
  snap::read_node_table(nodes, scratch, [&](host::Node& n) {
    host::AgentContext ctx = host::make_context(*this, *overlay_, n, round);
    return agent_factory_(ctx);
  });
  nodes.expect_done();

  if (overlay.u32() != overlay_->snapshot_kind()) {
    throw wire::DecodeError("snapshot overlay kind mismatch");
  }
  // Transactional (host/overlay.hpp).
  overlay_->restore_state(overlay, scratch);

  table_ = std::move(scratch);
  round_ = round;
  rng_ = global;
  total_traffic_ = totals;
  if (recorder_ != nullptr) {
    recorder_->manifest().set("resume_round",
                              static_cast<std::uint64_t>(round_));
    recorder_->manifest().set("resume_digest", snap::fnv1a(bytes));
  }
}

}  // namespace adam2::sim
