#include "runtime/cluster.hpp"

#include <cassert>
#include <future>
#include <mutex>
#include <stdexcept>

#include "host/exchange.hpp"
#include "host/ledger.hpp"
#include "sim/overlay.hpp"

namespace adam2::runtime {

using Clock = std::chrono::steady_clock;

/// HostView bridge the agents see. Membership is static, so liveness and
/// attribute lookups are lock-free reads; traffic totals go through the
/// shared ledger (low contention: two short updates per exchange).
class Cluster::HostBridge final : public host::HostView {
 public:
  HostBridge(const std::vector<stats::Value>& attributes,
             const std::vector<host::NodeId>& ids)
      : attributes_(attributes), ids_(ids) {}

  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return id < attributes_.size();
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return attributes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] host::Round round() const override {
    return 0;  // Wall-clock runtime has no global round; agents use ctx.round.
  }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(host::NodeId /*sender*/, host::NodeId /*receiver*/,
                      host::Channel channel, std::size_t bytes) override {
    ledger_.record_message(channel, bytes);
  }

  [[nodiscard]] host::TrafficStats snapshot() const {
    return ledger_.snapshot();
  }

 private:
  const std::vector<stats::Value>& attributes_;
  const std::vector<host::NodeId>& ids_;
  host::SharedTrafficLedger ledger_;
};

/// One node: an agent, a mailbox, and the thread driving both. The
/// request→response state machine (busy lock, NACK, stale-token rejection,
/// faulty sends) lives in the shared host::SessionedPort; this class is the
/// port's Transport adapter over the in-process Network plus the thread and
/// task plumbing.
class Cluster::RuntimeNode final : private host::SessionedPort::Transport {
 public:
  // The stream arrives by rvalue reference: this is an ownership transfer of
  // a freshly split stream, and rng::Rng is never passed by value anywhere
  // (a silent copy would fork the stream and diverge replay — adam2_lint
  // rule `rng-copy`).
  RuntimeNode(Cluster& cluster, host::NodeId id, stats::Value attribute,
              rng::Rng&& rng)
      : cluster_(cluster),
        id_(id),
        attribute_(attribute),
        rng_(rng),
        fault_rng_(cluster.conduit_.faults().node_stream(id)),
        port_(cluster.conduit_, *this, fault_rng_, traffic_) {}

  void create_agent(const host::AgentFactory& factory) {
    host::AgentContext ctx = make_context();
    agent_ = factory(ctx);
    if (!agent_) throw std::runtime_error("agent factory returned null");
  }

  /// Crash-restart, executed on this node's own thread (from a posted task)
  /// or inline while the cluster is stopped. Warm restarts carry the agent's
  /// protocol state through the host::snapshot hooks; cold restarts lose it.
  /// The session lock is abandoned either way (the in-flight exchange died
  /// with the process) but the port and its token counter survive, so the
  /// first post-restart initiation stamps a fresh token and any straggler
  /// response to the pre-crash exchange is rejected as stale, not merged.
  void restart(const host::AgentFactory& factory, bool warm) {
    host::restart_agent(agent_, warm, factory,
                        [this](bool) { return make_context(); });
    port_.session().abandon();
    ++traffic_.crash_restarts;
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    mailbox_.close();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  Mailbox& mailbox() { return mailbox_; }

  void post(Cluster::NodeTask task) {
    {
      const std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks_.push_back(std::move(task));
    }
    // Wake the loop: an empty self-addressed envelope is cheapest.
    mailbox_.push(Envelope{EnvelopeKind::kWakeup, id_, 0, {}});
  }

  /// Runs the task inline; only valid when the thread is not running
  /// (before start / after join).
  void run_inline(const Cluster::NodeTask& task) {
    host::AgentContext ctx = make_context();
    task(*agent_, ctx);
  }

  [[nodiscard]] const host::TrafficStats& traffic() const { return traffic_; }

 private:
  host::AgentContext make_context() {
    return host::AgentContext{*cluster_.host_, *cluster_.overlay_,
                             id_,            local_round_,
                             0,              attribute_,
                             rng_};
  }

  Clock::duration jittered_period() {
    const double jitter = cluster_.config_.period_jitter;
    const double factor = rng_.uniform(1.0 - jitter, 1.0 + jitter);
    return std::chrono::duration_cast<Clock::duration>(
        cluster_.config_.gossip_period * factor);
  }

  void run() {
    Clock::time_point next_tick = Clock::now() + jittered_period();
    while (!stop_.load(std::memory_order_relaxed)) {
      drain_tasks();
      auto envelope = mailbox_.wait_pop(next_tick);
      if (stop_.load(std::memory_order_relaxed)) break;
      if (envelope) {
        handle(std::move(*envelope));
        continue;
      }
      if (Clock::now() >= next_tick) {
        tick();
        next_tick += jittered_period();
      }
    }
    drain_tasks();
  }

  void drain_tasks() {
    for (;;) {
      Cluster::NodeTask task;
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

  void tick() {
    ++local_round_;
    host::AgentContext ctx = make_context();
    agent_->on_round_start(ctx);

    const auto outcome = port_.initiate(
        *agent_, ctx,
        [this]() -> std::optional<host::NodeId> {
          const auto target = cluster_.overlay_->pick_gossip_target(id_, rng_);
          if (!target || *target == id_) return std::nullopt;
          return target;
        },
        cluster_.config_.response_timeout);
    if (outcome == host::SessionedPort::Initiate::kNoTarget ||
        outcome == host::SessionedPort::Initiate::kSendFailed) {
      ++traffic_.failed_contacts;
    }
  }

  // -- host::SessionedPort::Transport (in-process Network adapter) ---------
  bool send_request(host::NodeId to, std::uint64_t token,
                    std::span<const std::byte> payload) override {
    return send_envelope(to, EnvelopeKind::kGossipRequest, token, payload);
  }
  bool send_response(host::NodeId to, std::uint64_t token,
                     std::span<const std::byte> payload) override {
    return send_envelope(to, EnvelopeKind::kGossipResponse, token, payload);
  }
  void send_busy(host::NodeId to, std::uint64_t token) override {
    cluster_.network_.send(to,
                           Envelope{EnvelopeKind::kGossipBusy, id_, token, {}});
  }
  void record_gossip_sent(host::NodeId /*peer*/, std::size_t bytes) override {
    traffic_.on(host::Channel::kAggregation).add_send(bytes);
  }
  void record_gossip_received(host::NodeId /*peer*/,
                              std::size_t bytes) override {
    traffic_.on(host::Channel::kAggregation).add_receive(bytes);
  }

  bool send_envelope(host::NodeId to, EnvelopeKind kind, std::uint64_t token,
                     std::span<const std::byte> payload) {
    // The span aliases the agent's (or the conduit's corruption) scratch;
    // the envelope outlives the callback, so copy into an owned payload.
    return cluster_.network_.send(
        to, Envelope{kind, id_, token,
                     std::vector<std::byte>(payload.begin(), payload.end())});
  }

  void handle(Envelope&& envelope) {
    host::AgentContext ctx = make_context();
    switch (envelope.kind) {
      case EnvelopeKind::kGossipRequest:
        port_.on_request(*agent_, ctx, envelope.from, envelope.token,
                         envelope.payload);
        return;
      case EnvelopeKind::kGossipResponse:
        port_.on_response(*agent_, ctx, envelope.from, envelope.token,
                          envelope.payload);
        return;
      case EnvelopeKind::kBootstrapRequest: {
        auto response = agent_->handle_bootstrap_request(ctx, envelope.payload);
        if (response.empty()) return;
        cluster_.network_.send(
            envelope.from, Envelope{EnvelopeKind::kBootstrapResponse, id_,
                                    envelope.token, std::move(response)});
        return;
      }
      case EnvelopeKind::kBootstrapResponse:
        (void)agent_->handle_bootstrap_response(ctx, envelope.payload);
        return;
      case EnvelopeKind::kGossipBusy:
        // Exchange abandoned; nothing was merged.
        port_.on_busy(envelope.token);
        return;
      case EnvelopeKind::kWakeup:
        return;  // drain_tasks at the top of the loop does the work.
    }
  }

  Cluster& cluster_;
  const host::NodeId id_;
  const stats::Value attribute_;
  rng::Rng rng_;
  rng::Rng fault_rng_;
  std::unique_ptr<host::NodeAgent> agent_;
  Mailbox mailbox_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  host::Round local_round_ = 0;
  host::TrafficStats traffic_;
  /// Declared after fault_rng_ and traffic_ (it holds references to both).
  host::SessionedPort port_;
  std::mutex tasks_mutex_;
  std::deque<Cluster::NodeTask> tasks_;
};

Cluster::Cluster(ClusterConfig config, std::vector<stats::Value> attributes,
                 host::AgentFactory agent_factory)
    : config_(config),
      conduit_(config.faults),
      attributes_(std::move(attributes)),
      agent_factory_(std::move(agent_factory)) {
  if (attributes_.empty()) throw std::invalid_argument("empty cluster");
  if (!agent_factory_) {
    throw std::invalid_argument("cluster requires a factory");
  }

  ids_.resize(attributes_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    ids_[i] = static_cast<host::NodeId>(i);
  }
  host_ = std::make_unique<HostBridge>(attributes_, ids_);

  rng::Rng rng(config_.seed);
  overlay_ = std::make_unique<sim::StaticRandomOverlay>(config_.overlay_degree);
  overlay_->build_initial(ids_, *host_, rng);

  nodes_.reserve(ids_.size());
  for (host::NodeId id : ids_) {
    nodes_.push_back(std::make_unique<RuntimeNode>(
        *this, id, attributes_[static_cast<std::size_t>(id)], rng.split(id)));
    network_.attach(id, &nodes_.back()->mailbox());
  }
  // Agents are created after every mailbox is attached, in case a factory
  // wants to send something immediately.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->create_agent(agent_factory_);
  }
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  if (running_.exchange(true)) return;
  // Recorder access stays on the driver thread (Recorder is not
  // thread-safe); round 0 because wall-clock runtimes have no round counter.
  if (recorder_ != nullptr) {
    recorder_->engine_start("cluster", 0, nodes_.size());
  }
  for (auto& node : nodes_) node->start();
}

void Cluster::stop() {
  if (!running_.exchange(false)) return;
  for (auto& node : nodes_) node->request_stop();
  for (auto& node : nodes_) node->join();
  // Threads have joined: the counters are exact now, so absorb the final
  // snapshot into the metrics registry.
  if (recorder_ != nullptr) {
    recorder_->set_traffic(total_traffic());
    recorder_->engine_stop(0);
  }
}

void Cluster::run_on_node(host::NodeId id, NodeTask fn) {
  auto& node = *nodes_.at(static_cast<std::size_t>(id));
  if (!running_) {
    node.run_inline(fn);
    return;
  }
  std::promise<void> done;
  auto future = done.get_future();
  node.post([&fn, &done](host::NodeAgent& agent, host::AgentContext& ctx) {
    fn(agent, ctx);
    done.set_value();
  });
  future.wait();
}

void Cluster::restart_node(host::NodeId id) {
  auto& node = *nodes_.at(static_cast<std::size_t>(id));
  const bool warm = config_.faults.warm_restart;
  if (!running_) {
    node.restart(agent_factory_, warm);
  } else {
    std::promise<void> done;
    auto future = done.get_future();
    // The task's agent reference points at the old agent and must not be
    // touched after restart replaces it; the restart runs on the node's own
    // thread, the only place the agent may be swapped safely.
    node.post([&](host::NodeAgent& /*agent*/, host::AgentContext& /*ctx*/) {
      node.restart(agent_factory_, warm);
      done.set_value();
    });
    future.wait();
  }
  // Recorder access stays on the driver thread (round 0: no global rounds).
  if (recorder_ != nullptr) recorder_->crash_restart(0, id);
}

host::TrafficStats Cluster::total_traffic() const {
  host::TrafficStats total = host_->snapshot();
  for (const auto& node : nodes_) total += node->traffic();
  return total;
}

}  // namespace adam2::runtime
