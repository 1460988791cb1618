#include "runtime/peer.hpp"

#include <future>
#include <stdexcept>
#include <utility>

namespace adam2::runtime {

Directory::Directory(std::vector<stats::Value> attributes)
    : attributes_(std::move(attributes)), ids_(attributes_.size()) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    ids_[i] = static_cast<host::NodeId>(i);
  }
}

std::optional<host::NodeId> Directory::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  if (ids_.size() < 2) return std::nullopt;
  // Uniform over the other nodes in one draw: skip over `id`.
  const host::NodeId pick = rng.below(ids_.size() - 1);
  return pick < id ? pick : pick + 1;
}

std::vector<host::NodeId> Directory::neighbors(host::NodeId id) const {
  std::vector<host::NodeId> out;
  for (host::NodeId other : ids_) {
    if (other != id) out.push_back(other);
  }
  return out;
}

std::vector<stats::Value> Directory::known_attribute_values(
    host::NodeId id, const host::HostView& /*host*/) const {
  std::vector<stats::Value> values;
  for (host::NodeId other : ids_) {
    if (other != id) values.push_back(attributes_[other]);
  }
  return values;
}

Peer::Peer(const ClusterConfig& config, host::NodeId id, Directory& directory,
           Endpoint& endpoint, host::AgentFactory factory)
    : config_(config),
      id_(id),
      directory_(directory),
      endpoint_(endpoint),
      factory_(std::move(factory)),
      rng_(rng::Rng(config.seed).split(id)),
      conduit_(config.faults),
      fault_rng_(conduit_.faults().node_stream(id)),
      port_(conduit_, endpoint_, id_, fault_rng_, traffic_) {
  if (!directory_.is_live(id_)) {
    throw std::invalid_argument("peer id outside the directory");
  }
  if (!factory_) throw std::invalid_argument("peer requires a factory");
  agent_ = factory_(make_context());
  if (!agent_) throw std::runtime_error("agent factory returned null");
}

Peer::~Peer() { stop(); }

void Peer::start() {
  if (running()) return;
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void Peer::stop() {
  if (!running()) return;
  stop_.store(true);
  wake();
  thread_.join();
  directory_.add_traffic(std::exchange(traffic_, host::TrafficStats{}));
}

void Peer::run_on_peer(const Task& fn) {
  if (!running()) {
    host::AgentContext ctx = make_context();
    fn(*agent_, ctx);
    return;
  }
  std::promise<void> done;
  auto future = done.get_future();
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back([&fn, &done](host::NodeAgent& agent,
                                  host::AgentContext& ctx) {
      try {
        fn(agent, ctx);
        done.set_value();
      } catch (...) {
        done.set_exception(std::current_exception());
      }
    });
  }
  wake();
  future.get();
}

void Peer::restart() {
  if (running()) {
    // The swap must happen on the peer's thread, the only place agent_ may
    // be touched while running. The task's agent reference points at the
    // old agent and is not used after the replacement.
    run_on_peer([this](host::NodeAgent&, host::AgentContext&) { crash(); });
    return;
  }
  crash();
  directory_.add_traffic(std::exchange(traffic_, host::TrafficStats{}));
}

void Peer::crash() {
  host::restart_agent(agent_, config_.faults.warm_restart, factory_,
                      [this](bool) { return make_context(); });
  port_.session().abandon();
  ++traffic_.crash_restarts;
}

void Peer::wake() {
  // A lost wakeup (a full socket buffer) only delays the loop until its
  // next tick, when it drains tasks and checks stop_ anyway.
  endpoint_.send(id_, Envelope{EnvelopeKind::kWakeup, id_, 0, {}});
}

host::AgentContext Peer::make_context() {
  return host::AgentContext{directory_,  directory_,
                           id_,         local_round_,
                           0,           directory_.attribute_of(id_),
                           rng_};
}

Clock::duration Peer::jittered_period() {
  const double jitter = config_.period_jitter;
  const double factor = rng_.uniform(1.0 - jitter, 1.0 + jitter);
  return std::chrono::duration_cast<Clock::duration>(config_.gossip_period *
                                                     factor);
}

void Peer::loop() {
  Clock::time_point next_tick = Clock::now() + jittered_period();
  while (!stop_.load()) {
    drain_tasks();
    // A due tick runs before the next receive, so a busy inbox cannot delay
    // the node's own gossip.
    if (Clock::now() >= next_tick) {
      tick();
      next_tick += jittered_period();
      continue;
    }
    if (auto envelope = endpoint_.receive(next_tick)) {
      handle(std::move(*envelope));
    }
  }
  drain_tasks();
  const std::uint64_t rejected = endpoint_.rejected_frames();
  traffic_.rejected_messages += rejected - rejected_seen_;
  rejected_seen_ = rejected;
}

void Peer::drain_tasks() {
  for (;;) {
    Task task;
    {
      const std::lock_guard<std::mutex> lock(tasks_mutex_);
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    host::AgentContext ctx = make_context();
    task(*agent_, ctx);
  }
}

void Peer::tick() {
  ++local_round_;
  host::AgentContext ctx = make_context();
  agent_->on_round_start(ctx);
  const auto outcome = port_.initiate(
      *agent_, ctx, [this] { return directory_.pick_gossip_target(id_, rng_); },
      config_.response_timeout);
  if (outcome == SessionedPort::Initiate::kNoTarget ||
      outcome == SessionedPort::Initiate::kSendFailed) {
    ++traffic_.failed_contacts;
  }
}

void Peer::handle(Envelope&& envelope) {
  host::AgentContext ctx = make_context();
  switch (envelope.kind) {
    case EnvelopeKind::kGossipRequest:
      port_.on_request(*agent_, ctx, envelope.from, envelope.token,
                       envelope.payload);
      return;
    case EnvelopeKind::kGossipResponse:
      port_.on_response(*agent_, ctx, envelope.token, envelope.payload);
      return;
    case EnvelopeKind::kGossipBusy:
      port_.on_busy(envelope.token);  // Exchange abandoned; nothing merged.
      return;
    case EnvelopeKind::kWakeup:
      return;  // The loop drains tasks and checks stop_ next.
  }
}

}  // namespace adam2::runtime
