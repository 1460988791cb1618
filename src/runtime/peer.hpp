// One protocol node on the wall clock, over any datagram endpoint.
//
// Where sim::CycleEngine and sim::AsyncEngine *simulate* time, a Peer runs
// its agent on a real thread: it gossips on its own jittered timer, moves
// framed envelopes through an Endpoint (the in-process Network or a
// loopback UDP socket), and applies the same exchange-atomicity discipline
// as the asynchronous engine (a node awaiting a response refuses other
// exchanges until it arrives or times out). The agents are the exact
// NodeAgent objects the simulators host.
//
// Membership is static: a Directory lists every node of one deployment and
// its value, so there is no churn and no join-time bootstrap (the
// simulators cover both). runtime::Cluster composes one Directory, one
// Network and N peers; a UDP deployment composes a Directory, UdpEndpoints
// and peers itself.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "host/agent.hpp"
#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/traffic.hpp"
#include "rng/rng.hpp"
#include "runtime/session.hpp"
#include "runtime/transport.hpp"

namespace adam2::runtime {

/// Settings shared by every peer of one deployment (a Cluster, or UDP peers
/// sharing a Directory).
struct ClusterConfig {
  /// Mean wall-clock time between a node's gossip initiations.
  std::chrono::microseconds gossip_period{2000};
  double period_jitter = 0.2;  ///< Relative uniform jitter per period.
  /// How long a node stays locked waiting for a response before giving up.
  std::chrono::microseconds response_timeout{20000};
  /// Peer `id` draws from rng::Rng(seed).split(id).
  std::uint64_t seed = 0xc1a5;
  /// Deterministic fault schedule for gossip messages (drop, duplication,
  /// corruption). Crash-restarts are requested by the caller (Peer::restart)
  /// rather than drawn per round — the wall clock has no rounds — and honour
  /// the plan's warm_restart knob. Partitions are simulator-only; delay is
  /// meaningless here because the wall clock already supplies real latency.
  host::FaultPlan faults;
};

/// Static full membership of one deployment: node i holds attribute i, a
/// gossip target is uniform among the other nodes, and every other node's
/// value is known. It is the host::HostView and host::Overlay the agents
/// see, and it holds the deployment's traffic ledger. Thread-safe.
class Directory final : public host::Overlay, public host::HostView {
 public:
  explicit Directory(std::vector<stats::Value> attributes);

  [[nodiscard]] std::size_t size() const { return attributes_.size(); }

  // -- host::Overlay (full membership) -------------------------------------
  void add_node(host::NodeId, const host::HostView&, rng::Rng&) override {}
  void remove_node(host::NodeId) override {}
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId id, rng::Rng& rng) const override;
  [[nodiscard]] std::vector<host::NodeId> neighbors(
      host::NodeId id) const override;
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId id, const host::HostView& host) const override;

  // -- host::HostView ------------------------------------------------------
  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return id < attributes_.size();
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return attributes_[static_cast<std::size_t>(id)];
  }
  /// The wall clock has no global round; agents use ctx.round.
  [[nodiscard]] host::Round round() const override { return 0; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return ids_;
  }
  /// Counts one message as sent and received on `channel` (the global view
  /// of a point-to-point transfer). Any peer thread may call it.
  void record_traffic(host::Channel channel, std::size_t bytes) override {
    const std::lock_guard<std::mutex> lock(traffic_mutex_);
    traffic_.record_message(channel, bytes);
  }

  /// Everything the peers have added so far (each adds its counters when it
  /// stops).
  [[nodiscard]] host::TrafficStats traffic() const {
    const std::lock_guard<std::mutex> lock(traffic_mutex_);
    return traffic_;
  }
  /// Merges one peer's counters (on stop, or on a restart while stopped).
  void add_traffic(const host::TrafficStats& stats) {
    const std::lock_guard<std::mutex> lock(traffic_mutex_);
    traffic_ += stats;
  }

 private:
  std::vector<stats::Value> attributes_;
  std::vector<host::NodeId> ids_;
  mutable std::mutex traffic_mutex_;
  host::TrafficStats traffic_;
};

/// One node: an agent, its thread and its endpoint. The request→response
/// state machine (busy lock, NACK, stale-token rejection, faulty sends)
/// lives in the SessionedPort, which sends through the endpoint; the Peer
/// adds the timer, task and lifecycle plumbing.
class Peer final {
 public:
  using Task = std::function<void(host::NodeAgent&, host::AgentContext&)>;

  /// Builds the agent through `factory`, which restart() uses again.
  /// `directory` and `endpoint` must outlive the peer.
  Peer(const ClusterConfig& config, host::NodeId id, Directory& directory,
       Endpoint& endpoint, host::AgentFactory factory);
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Launches the peer's thread. No-op while running; works after stop().
  void start();

  /// Wakes and joins the thread, then adds this run's counters (gossip
  /// bytes, faults, failed contacts, restarts, rejected frames) to the
  /// directory's ledger. No-op while stopped.
  void stop();

  [[nodiscard]] bool running() const { return thread_.joinable(); }

  /// Executes `fn(agent, ctx)` on the peer's thread and blocks until it
  /// completes (inline while stopped) — the only safe way to touch an agent
  /// while the peer runs. An exception `fn` throws reaches the caller.
  void run_on_peer(const Task& fn);

  /// Crash-restarts the agent in place through host::restart_agent, on the
  /// peer's own thread (inline while stopped). With
  /// `config.faults.warm_restart` the agent's protocol state is carried
  /// across through the host::snapshot hooks (DESIGN.md §12); cold restarts
  /// lose it. The in-flight exchange is abandoned but the port's token
  /// counter survives, so the first post-restart initiation stamps a fresh
  /// token and straggler responses to the pre-crash exchange are rejected
  /// as stale, not merged. Counted in crash_restarts; a restart made while
  /// stopped reaches the ledger at once.
  void restart();

 private:
  void loop();
  void tick();
  void handle(Envelope&& envelope);
  void crash();
  void drain_tasks();
  void wake();
  host::AgentContext make_context();
  Clock::duration jittered_period();

  const ClusterConfig config_;
  const host::NodeId id_;
  Directory& directory_;
  Endpoint& endpoint_;
  const host::AgentFactory factory_;
  rng::Rng rng_;
  /// Exchange fabric: only the fault plan applies (its drop_rate is the one
  /// injected loss; latency and reordering come from the real transport).
  const host::Conduit conduit_;
  rng::Rng fault_rng_;
  std::unique_ptr<host::NodeAgent> agent_;
  host::Round local_round_ = 0;
  /// This run's counters, written only on the peer's thread (or inline
  /// while stopped) and added to the directory's ledger by stop().
  host::TrafficStats traffic_;
  /// Endpoint rejections already counted, so each one is counted once.
  std::uint64_t rejected_seen_ = 0;
  /// Declared after endpoint_, conduit_, fault_rng_ and traffic_ (it
  /// references all four).
  SessionedPort port_;
  std::mutex tasks_mutex_;
  std::deque<Task> tasks_;
  std::atomic<bool> stop_{false};
  /// Declared last: the thread uses every member above.
  std::thread thread_;
};

}  // namespace adam2::runtime
