#include "sim/cycle_engine.hpp"

#include <algorithm>
#include <utility>

#include "host/snapshot.hpp"

namespace adam2::sim {

namespace snap = host::snapshot;

constexpr std::size_t kPrefetchAhead = 8;  // Exchange-walk units.

CycleEngine::CycleEngine(EngineConfig config,
                         std::vector<stats::Value> initial_attributes,
                         std::unique_ptr<host::Overlay> overlay,
                         host::AgentFactory agent_factory,
                         host::AttributeSource attribute_source,
                         std::size_t threads)
    : Population(config.faults, config.seed, std::move(overlay),
                 std::move(agent_factory), std::move(attribute_source),
                 config.churn_rate > 0.0),
      config_(config),
      pool_(threads),
      worker_totals_(pool_.size()) {
  populate(initial_attributes);
}

void CycleEngine::run_round() {
  if (recorder_ != nullptr) recorder_->round_begin(round_, table_.live_count());

  // 1. Round start for every live agent (sharded).
  const auto live = table_.live_ids();
  pool_.run_indexed(live.size(), [&](std::size_t i, std::size_t) {
    host::Node& n = table_.at(live[i]);
    host::AgentContext ctx = host::make_context(*this, *overlay_, n, round_);
    n.agent->on_round_start(ctx);
  });

  // 2. Overlay maintenance: the shuffles' in-order decisions and their
  //    applies (host::Overlay::maintain on the pool).
  overlay_->maintain(*this, rng_, pool_);

  // 3. One exchange per live node, in an order shuffled from the global
  //    stream. The walk picks each target from the initiator's control
  //    stream and claims both participants; the apply is the exchange,
  //    counted into its worker's slot. With a recorder attached every
  //    exchange stores its outcome in its plan position's slot; draining
  //    them in order afterwards gives the same record stream at any thread
  //    count.
  const auto initiators = table_.live_ids();
  order_.assign(initiators.begin(), initiators.end());
  rng_.shuffle(order_);
  targets_.resize(std::min(order_.size(), pool_.pending_limit()));
  if (recorder_ != nullptr) outcomes_.assign(order_.size(), {});
  // A node's id is its slot.
  pool_.run_ordered(
      order_.size(), table_.size(),
      [&](std::size_t p, host::WorkerPool::Claims& claims) {
        // Start loading a control stream a few units ahead: the walk is
        // serial, and node records lie scattered.
        if (p + kPrefetchAhead < order_.size()) {
          __builtin_prefetch(&table_.at(order_[p + kPrefetchAhead]).pick_rng,
                             1);
        }
        const host::NodeId initiator = order_[p];
        std::optional<host::NodeId>& target = targets_[p % targets_.size()];
        target = overlay_->pick_gossip_target(initiator,
                                              table_.at(initiator).pick_rng);
        claims.claim(static_cast<std::uint32_t>(initiator));
        // The target too, by the id bound alone: the walk reads no node
        // record for it. Liveness is frozen during this phase, so a claim
        // on a dead node only orders the units that picked that node, and
        // the apply counts the failed contact; an id beyond the table
        // (a restored static link may name one) stays a failed contact.
        if (target && *target != initiator && *target < table_.size()) {
          claims.claim(static_cast<std::uint32_t>(*target));
        }
        return true;
      },
      [&](std::size_t p, std::size_t worker) {
        const obs::ExchangeOutcome outcome = conduit_.run_cycle_exchange(
            *this, *overlay_, table_, round_, table_.at(order_[p]),
            targets_[p % targets_.size()], worker_totals_[worker]);
        if (recorder_ != nullptr) outcomes_[p] = outcome;
      });
  // Commutative integer sums: the ledger does not depend on which worker
  // counted what.
  for (host::TrafficStats& slot : worker_totals_) {
    total_traffic_ += slot;
    slot = host::TrafficStats{};
  }
  if (recorder_ != nullptr) {
    for (const obs::ExchangeOutcome& outcome : outcomes_) {
      recorder_->exchange(round_, outcome);
    }
  }

  // 4.-6. Fault-plan crash-restarts (no-op without a plan), churn, and the
  //    recorder's sample of the settled state.
  finish_round(config_.churn_rate);
  ++round_;
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

  save_population(writer);
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
  host::NodeTable scratch = read_nodes(nodes, round);
  install(overlay, std::move(scratch), global, totals, bytes,
          [&] { round_ = round; });
}

}  // namespace adam2::sim
