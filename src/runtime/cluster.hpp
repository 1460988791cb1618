// Threaded in-process deployment of the protocol agents.
//
// Where sim::CycleEngine and sim::AsyncEngine *simulate* time, the Cluster
// runs every node on a real thread against the wall clock: nodes gossip on
// their own jittered timers, exchange framed datagrams through the in-process
// Network, and apply the same exchange-atomicity discipline as the
// asynchronous engine (a node awaiting a response refuses other exchanges
// until it arrives or times out). The protocol agents are the exact same
// NodeAgent objects the simulators host — nothing about Adam2 changes when
// the substrate becomes genuinely concurrent.
//
// Membership is static (no churn): the runtime demonstrates deployment-style
// concurrency, not the churn model, which the simulators cover.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "runtime/transport.hpp"
#include "host/agent.hpp"
#include "sim/overlay.hpp"
#include "host/traffic.hpp"

namespace adam2::runtime {

struct ClusterConfig {
  /// Mean wall-clock time between a node's gossip initiations.
  std::chrono::microseconds gossip_period{2000};
  double period_jitter = 0.2;  ///< Relative uniform jitter per period.
  /// How long a node stays locked waiting for a response before giving up.
  std::chrono::microseconds response_timeout{20000};
  std::size_t overlay_degree = 8;
  std::uint64_t seed = 0xc1a5;
  /// Deterministic fault schedule for gossip messages (drop, duplication,
  /// corruption). Crash-restarts are driver-triggered (restart_node) rather
  /// than drawn per round — the wall clock has no rounds — and honour the
  /// plan's warm_restart knob. Partitions are simulator-only; delay is
  /// meaningless here because the wall clock already supplies real latency.
  host::FaultPlan faults;
};

class Cluster {
 public:
  /// Builds (but does not start) a cluster of `attributes.size()` nodes.
  Cluster(ClusterConfig config, std::vector<stats::Value> attributes,
          host::AgentFactory agent_factory);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Launches one thread per node. Idempotent.
  void start();

  /// Signals every node to finish and joins the threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Executes `fn(agent, ctx)` on the node's own thread and blocks until it
  /// completes — the only safe way to touch an agent while the cluster runs
  /// (e.g. to start an aggregation instance or copy an estimate out).
  using NodeTask = std::function<void(host::NodeAgent&, host::AgentContext&)>;
  void run_on_node(host::NodeId id, NodeTask fn);

  /// Crash-restarts one node in place, on its own thread (blocking): the
  /// agent is replaced through host::restart_agent and any in-flight
  /// exchange is abandoned — the lock died with the process. With
  /// `config.faults.warm_restart` the agent's protocol state is carried
  /// across through the host::snapshot hooks (DESIGN.md §12), so the node
  /// rejoins its running instances; cold restarts lose all protocol state.
  /// Either way the port's token counter survives, so the first post-restart
  /// exchange uses a fresh token and pre-crash responses are rejected as
  /// stale instead of merged. Counted in crash_restarts.
  void restart_node(host::NodeId id);

  /// Aggregate traffic across all nodes (safe any time; counters are only
  /// approximate while threads are running).
  [[nodiscard]] host::TrafficStats total_traffic() const;

  [[nodiscard]] const Network& network() const { return network_; }

  /// Attaches the observability recorder (nullptr detaches; not owned). The
  /// Recorder is single-threaded by contract, so a wall-clock runtime only
  /// touches it from the driver thread: start() records the engine-start
  /// event, stop() absorbs the final traffic snapshot and records
  /// engine-stop after the node threads have joined. Per-event tracing is a
  /// simulator feature (DESIGN.md §11). Call before start().
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  class RuntimeNode;
  class HostBridge;

  ClusterConfig config_;
  /// The shared exchange fabric: messages are lost only by the fault plan's
  /// drop_rate, since in-process transfer itself either works or does not.
  host::Conduit conduit_;
  std::vector<stats::Value> attributes_;
  /// Kept past construction so restart_node can rebuild crashed agents.
  host::AgentFactory agent_factory_;
  std::vector<host::NodeId> ids_;
  Network network_;
  std::unique_ptr<host::Overlay> overlay_;
  std::unique_ptr<HostBridge> host_;
  std::vector<std::unique_ptr<RuntimeNode>> nodes_;
  std::atomic<bool> running_{false};
  obs::Recorder* recorder_ = nullptr;  // Driver-thread only; see set_recorder.
};

}  // namespace adam2::runtime
