#include "sim/cycle_engine.hpp"

#include <algorithm>
#include <utility>

#include "host/hints.hpp"
#include "host/snapshot.hpp"

namespace adam2::sim {

namespace snap = host::snapshot;

namespace {

/// The exchange walk draws unit p + kPickAhead's target while it decides
/// unit p and starts loading both node records, so they have arrived by the
/// time the unit runs; it starts loading the record of the initiator it
/// will pick kRecordAhead picks later, whose control stream the pick reads.
constexpr std::size_t kPickAhead = 16;
constexpr std::size_t kRecordAhead = 8;
/// Look-ahead stages of one exchange, kSpacing units apart: the initiator's
/// agent line, its levels 0-2 (NodeAgent::prefetch), then, if it holds
/// state, the target's record, agent line and levels 0-2.
constexpr std::size_t kStages = 7;
constexpr std::size_t kSpacing = 2;
/// The look-ahead runs in rounds after one with at least one aggregation
/// message per kPayloadShare initiators.
constexpr std::size_t kPayloadShare = 4;
static_assert((kStages - 1) * kSpacing < host::WorkerPool::kLookAhead &&
                  host::WorkerPool::kLookAhead <= kPickAhead,
              "every stage runs after the unit's pick and before its "
              "decision");

}  // namespace

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
  //    stream kPickAhead units before it decides the unit, and claims both
  //    participants; the apply is the exchange, counted into its worker's
  //    slot. The pick draws what it always drew: only the walk touches a
  //    control stream, once per live node, and the overlay is frozen after
  //    maintenance. With a recorder attached every exchange stores its
  //    outcome in its plan position's slot; draining them in order
  //    afterwards gives the same record stream at any thread count.
  const auto initiators = table_.live_ids();
  order_.assign(initiators.begin(), initiators.end());
  rng_.shuffle(order_);
  // The ring holds the pending units' targets and the ones drawn ahead.
  targets_.resize(
      std::min(order_.size(), pool_.pending_limit() + kPickAhead));
  picked_ = 0;
  if (recorder_ != nullptr) outcomes_.assign(order_.size(), {});
  // A node's id is its slot.
  pool_.run_ordered(
      order_.size(), table_.size(),
      [&](std::size_t p, host::WorkerPool::Claims& claims) {
        for (; picked_ < order_.size() && picked_ <= p + kPickAhead;
             ++picked_) {
          // Node records lie scattered, and the walk is serial.
          if (picked_ + kRecordAhead < order_.size()) {
            host::prefetch_object(&table_.at(order_[picked_ + kRecordAhead]));
          }
          const host::NodeId initiator = order_[picked_];
          const std::optional<host::NodeId>& target =
              target_of(picked_) = overlay_->pick_gossip_target(
                  initiator, table_.at(initiator).pick_rng);
          if (target && *target < table_.size()) {
            host::prefetch_object(&table_.at(*target));
          }
        }
        const host::NodeId initiator = order_[p];
        const std::optional<host::NodeId>& target = target_of(p);
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
            target_of(p), worker_totals_[worker]);
        if (recorder_ != nullptr) outcomes_[p] = outcome;
      },
      [&](std::size_t u) { look_ahead(u); });
  // Commutative integer sums: the ledger does not depend on which worker
  // counted what.
  const std::uint64_t sent_before =
      total_traffic_.on(host::Channel::kAggregation).messages_sent;
  for (host::TrafficStats& slot : worker_totals_) {
    total_traffic_ += slot;
    slot = host::TrafficStats{};
  }
  // The next round's look-ahead loads agent state only if this round's
  // exchanges carried payloads: in a round where initiators hold nothing
  // the loads cost more than the exchanges they would serve.
  payload_round_ =
      (total_traffic_.on(host::Channel::kAggregation).messages_sent -
       sent_before) * kPayloadShare >=
      order_.size();
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

std::optional<host::NodeId>& CycleEngine::target_of(std::size_t p) {
  return targets_[p % targets_.size()];
}

void CycleEngine::look_ahead(std::size_t u) {
  if (!payload_round_) return;
  const auto agent_of = [&](host::NodeId id) {
    return table_.at(id).agent.get();
  };
  for (std::size_t stage = 0; stage < kStages && stage * kSpacing <= u;
       ++stage) {
    const std::size_t p = u - stage * kSpacing;
    if (p >= picked_) continue;
    const host::NodeAgent* initiator = agent_of(order_[p]);
    if (initiator == nullptr) continue;
    bool& sends = sends_[p % sends_.size()];
    if (stage == 0) {
      host::touch_bytes(initiator, 1);  // The line the hint's call reads.
    } else if (stage <= 3) {
      const bool holds = initiator->prefetch(stage - 1);
      if (stage == 2) sends = holds;
    }
    // A silent initiator never reaches its target.
    const std::optional<host::NodeId>& target = target_of(p);
    if (stage < 2 || !sends || !target || *target == order_[p] ||
        *target >= table_.size()) {
      continue;
    }
    if (stage == 2) {
      host::touch_bytes(&table_.at(*target), sizeof(host::Node));
    } else if (const host::NodeAgent* agent = agent_of(*target)) {
      if (stage == 3) {
        host::touch_bytes(agent, 1);
      } else {
        (void)agent->prefetch(stage - 4);
      }
    }
  }
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
