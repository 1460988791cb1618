#include "sim/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "host/snapshot.hpp"

namespace adam2::sim {

namespace snap = host::snapshot;

namespace {
/// busy_until_'s "no lock held" marker: no lock time is NaN, and a restore
/// refuses one.
constexpr double kNotBusy = std::numeric_limits<double>::quiet_NaN();
}  // namespace

AsyncEngine::AsyncEngine(AsyncConfig config,
                         std::vector<stats::Value> initial_attributes,
                         std::unique_ptr<host::Overlay> overlay,
                         host::AgentFactory agent_factory,
                         host::AttributeSource attribute_source)
    : Population(config.faults, config.seed, std::move(overlay),
                 std::move(agent_factory), std::move(attribute_source),
                 config.churn_per_second > 0.0),
      config_(config) {
  if (!(config_.gossip_period > 0.0)) {
    throw std::invalid_argument("gossip period must be positive");
  }
  if (config_.latency_max < config_.latency_min) {
    throw std::invalid_argument("latency bounds inverted");
  }

  populate(initial_attributes);
  busy_until_.assign(table_.size(), kNotBusy);

  // Desynchronised start: first ticks are spread over one full period.
  for (host::NodeId id : table_.live_ids()) {
    schedule(rng_.uniform(0.0, config_.gossip_period), EventKind::kNodeTick,
             id, id);
  }
  schedule(config_.gossip_period, EventKind::kMaintenance, 0, 0);
}

void AsyncEngine::on_join(host::NodeId id) {
  busy_until_.resize(table_.size(), kNotBusy);
  schedule(now_ + next_period(), EventKind::kNodeTick, id, id);
}

double AsyncEngine::sample_latency() {
  return rng_.uniform(config_.latency_min, config_.latency_max);
}

double AsyncEngine::next_period() {
  const double jitter = config_.period_jitter;
  return config_.gossip_period * rng_.uniform(1.0 - jitter, 1.0 + jitter);
}

void AsyncEngine::schedule(double time, EventKind kind, host::NodeId from,
                           host::NodeId to, std::vector<std::byte> payload) {
  queue_.push(Event{time, next_seq_++, kind, from, to, std::move(payload)});
}

void AsyncEngine::run_until(double time) {
  while (!queue_.empty() && queue_.top().time <= time) {
    // top() is const; moving the payload out before pop() avoids copying the
    // message buffer (the moved-from element is removed immediately).
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.time;
    handle(std::move(event));
  }
  // Monotone: a target already in the past (e.g. a warm-up call after
  // restore_snapshot resumed at a later time) must not rewind the clock.
  if (time > now_) now_ = time;
}

void AsyncEngine::handle(Event&& event) {
  switch (event.kind) {
    case EventKind::kNodeTick:
      on_tick(event.from);
      return;
    case EventKind::kRequestDelivery:
      on_request(std::move(event));
      return;
    case EventKind::kResponseDelivery:
      on_response(std::move(event));
      return;
    case EventKind::kMaintenance:
      on_maintenance();
      return;
  }
}

bool AsyncEngine::is_busy(host::NodeId id) const {
  return now_ < busy_until_[id];  // False for kNotBusy.
}

void AsyncEngine::set_busy(host::NodeId id) {
  // Worst-case round trip plus slack; a lost response frees the node then.
  busy_until_[id] = now_ + 2.0 * config_.latency_max + 1e-9;
}

void AsyncEngine::clear_busy(host::NodeId id) { busy_until_[id] = kNotBusy; }

void AsyncEngine::on_tick(host::NodeId id) {
  if (!is_live(id)) return;  // Died while the tick was in flight.
  host::Node& n = table_.at(id);
  host::AgentContext ctx = host::make_context(*this, *overlay_, n, round());
  n.agent->on_round_start(ctx);

  // Exchange atomicity: never two exchanges in flight from one node.
  if (!is_busy(id)) {
    auto request = n.agent->make_request(ctx);
    if (!request.empty()) {
      const auto target = overlay_->pick_gossip_target(id, n.pick_rng);
      if (!target || !is_live(*target) || *target == id) {
        ++total_traffic_.failed_contacts;
      } else {
        record_traffic(host::Channel::kAggregation, request.size());
        // The busy lock opens whether or not the request survives the
        // pipeline: a lost request frees the node at its timeout, exactly as
        // in a deployment.
        set_busy(id);
        deliver(EventKind::kRequestDelivery, id, *target, request,
                n.fault_rng);
      }
    }
  }
  schedule(now_ + next_period(), EventKind::kNodeTick, id, id);
}

void AsyncEngine::on_request(Event&& event) {
  if (!is_live(event.to)) return;  // Responder died in flight.
  host::Node& responder = table_.at(event.to);
  if (is_busy(event.to)) {
    // Atomicity: the responder's state could still change when its own
    // outstanding response arrives, so it must not commit to an answer now.
    ++total_traffic_.busy_rejections;
    return;
  }
  host::AgentContext ctx =
      host::make_context(*this, *overlay_, responder, round());
  auto response = responder.agent->handle_request(ctx, event.payload);
  if (response.empty()) return;
  record_traffic(host::Channel::kAggregation, response.size());
  deliver(EventKind::kResponseDelivery, event.to, event.from, response,
          responder.fault_rng);
}

void AsyncEngine::deliver(EventKind kind, host::NodeId from, host::NodeId to,
                          std::span<const std::byte> payload,
                          rng::Rng& fault_stream) {
  // The fabric resolves partitions, fate and extra delay; this engine turns
  // the surviving copies into events. Each copy samples its own latency, so
  // duplicates genuinely reorder through the event queue.
  std::vector<std::byte> scratch;
  const host::Conduit::Delivery delivery = conduit_.resolve(
      host::Conduit::Leg{from, to, round(), &fault_stream,
                         /*partition_check=*/true, /*draw_delay=*/true},
      payload, scratch, total_traffic_);
  for (unsigned copy = 0; copy < delivery.copies; ++copy) {
    // The span aliases agent (or corruption) scratch; events own copies.
    schedule(now_ + sample_latency() + delivery.extra_delay, kind, from, to,
             std::vector<std::byte>(delivery.payload.begin(),
                                    delivery.payload.end()));
  }
}

void AsyncEngine::on_response(Event&& event) {
  // A requester that died in flight lost its lock with it.
  if (!is_live(event.to)) return;
  clear_busy(event.to);
  host::Node& requester = table_.at(event.to);
  host::AgentContext ctx =
      host::make_context(*this, *overlay_, requester, round());
  requester.agent->handle_response(ctx, event.payload);
}

void AsyncEngine::on_maintenance() {
  overlay_->maintain(*this, rng_);
  // Ends with one kRoundEnd per maintenance cycle: the event-driven analogue
  // of the cycle engine's end-of-round sample (same gauges, same traffic
  // absorb).
  finish_round(config_.churn_per_second * config_.gossip_period);
  schedule(now_ + config_.gossip_period, EventKind::kMaintenance, 0, 0);
}

std::vector<std::byte> AsyncEngine::save_snapshot() const {
  snap::SnapshotWriter writer(snap::EngineKind::kAsync);

  writer.begin_section(snap::kSectionMeta);
  writer.out().f64(config_.gossip_period);
  writer.out().f64(config_.period_jitter);
  writer.out().f64(config_.latency_min);
  writer.out().f64(config_.latency_max);
  writer.out().f64(config_.churn_per_second);
  writer.out().u64(config_.seed);
  snap::write_fault_plan(writer.out(), config_.faults);
  writer.end_section();

  writer.begin_section(snap::kSectionEngine);
  writer.out().f64(now_);
  writer.out().u64(next_seq_);
  snap::write_rng(writer.out(), rng_);
  snap::write_traffic(writer.out(), total_traffic_);
  writer.out().length(static_cast<std::size_t>(std::ranges::count_if(
      busy_until_, [](double until) { return !std::isnan(until); })));
  for (host::NodeId id = 0; id < busy_until_.size(); ++id) {
    if (std::isnan(busy_until_[id])) continue;
    writer.out().u64(id);
    writer.out().f64(busy_until_[id]);
  }
  writer.end_section();

  save_population(writer);

  writer.begin_section(snap::kSectionQueue);
  {
    // Drain a copy in pop order — the canonical (time, seq) order, which is
    // also exactly the order a restored engine re-encounters the events in.
    auto pending = queue_;
    writer.out().length(pending.size());
    while (!pending.empty()) {
      const Event& event = pending.top();
      writer.out().f64(event.time);
      writer.out().u64(event.seq);
      writer.out().u8(static_cast<std::uint8_t>(event.kind));
      writer.out().u64(event.from);
      writer.out().u64(event.to);
      writer.out().length(event.payload.size());
      writer.out().bytes(event.payload);
      pending.pop();
    }
  }
  writer.end_section();

  return writer.finish();
}

void AsyncEngine::restore_snapshot(std::span<const std::byte> bytes) {
  snap::SnapshotReader reader(bytes, snap::EngineKind::kAsync);
  wire::Reader meta = reader.section(snap::kSectionMeta);
  wire::Reader engine = reader.section(snap::kSectionEngine);
  wire::Reader nodes = reader.section(snap::kSectionNodes);
  wire::Reader overlay = reader.section(snap::kSectionOverlay);
  wire::Reader queue = reader.section(snap::kSectionQueue);
  reader.expect_end();

  if (meta.f64() != config_.gossip_period ||
      meta.f64() != config_.period_jitter ||
      meta.f64() != config_.latency_min ||
      meta.f64() != config_.latency_max ||
      meta.f64() != config_.churn_per_second ||
      meta.u64() != config_.seed ||
      snap::read_fault_plan(meta) != config_.faults) {
    throw wire::DecodeError("snapshot engine config mismatch");
  }
  meta.expect_done();

  // The node table comes first: busy-set ids index a vector sized by it.
  host::NodeTable scratch = read_nodes(nodes, round());

  const double now = engine.f64();
  const std::uint64_t next_seq = engine.u64();
  rng::Rng global(0);
  snap::read_rng(engine, global);
  host::TrafficStats totals;
  snap::read_traffic(engine, totals);
  std::vector<double> busy(scratch.size(), kNotBusy);
  const std::size_t busy_count = engine.length(16);
  for (std::size_t i = 0, next = 0; i < busy_count; ++i) {
    const host::NodeId id = engine.u64();
    if (id < next) throw wire::DecodeError("busy set ids not in sorted order");
    if (!scratch.is_live(id)) {
      throw wire::DecodeError("busy set names a dead or unknown node");
    }
    busy[id] = engine.f64();
    if (std::isnan(busy[id])) {
      throw wire::DecodeError("busy set lock time is not a number");
    }
    next = id + 1;
  }
  engine.expect_done();

  std::vector<Event> events;
  {
    const std::size_t count = queue.length(37);  // Fixed fields + lengths.
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Event event;
      event.time = queue.f64();
      event.seq = queue.u64();
      // Canonical form: events appear in strict pop order (time, then seq;
      // a NaN time can never compare as ordered and is rejected here too),
      // and every seq predates the scheduler's counter.
      if (i > 0 && !(event.time > events.back().time ||
                     (event.time == events.back().time &&
                      event.seq > events.back().seq))) {
        throw wire::DecodeError("event queue not in pop order");
      }
      if (event.seq >= next_seq) {
        throw wire::DecodeError("event seq ahead of scheduler counter");
      }
      const std::uint8_t kind = queue.u8();
      if (kind > static_cast<std::uint8_t>(EventKind::kMaintenance)) {
        throw wire::DecodeError("unknown event kind in snapshot");
      }
      event.kind = static_cast<EventKind>(kind);
      event.from = queue.u64();
      event.to = queue.u64();
      const std::size_t payload = queue.length(1);
      const auto view = queue.bytes(payload);
      event.payload.assign(view.begin(), view.end());
      events.push_back(std::move(event));
    }
  }
  queue.expect_done();

  install(overlay, std::move(scratch), global, totals, bytes, [&] {
    now_ = now;
    next_seq_ = next_seq;
    busy_until_ = std::move(busy);
    queue_ = std::priority_queue<Event, std::vector<Event>, EventLater>(
        EventLater{}, std::move(events));
  });
}

}  // namespace adam2::sim
