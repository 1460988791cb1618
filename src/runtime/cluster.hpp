// Threaded in-process deployment of the protocol agents: one runtime::Peer
// per node, all on one in-process Network and one static Directory
// (runtime/peer.hpp). Nodes gossip on their own jittered timers and
// exchange framed datagrams through per-node mailboxes.
#pragma once

#include <memory>
#include <vector>

#include "obs/recorder.hpp"
#include "runtime/peer.hpp"
#include "runtime/transport.hpp"

namespace adam2::runtime {

class Cluster {
 public:
  /// Builds (but does not start) a cluster of `attributes.size()` nodes.
  Cluster(ClusterConfig config, std::vector<stats::Value> attributes,
          host::AgentFactory agent_factory);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Launches one thread per node. Idempotent; works again after stop().
  void start();

  /// Signals every node to finish and joins the threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::size_t size() const { return peers_.size(); }

  /// Executes `fn(agent, ctx)` on the node's own thread and blocks until it
  /// completes — the only safe way to touch an agent while the cluster runs
  /// (e.g. to start an aggregation instance or copy an estimate out).
  using NodeTask = Peer::Task;
  void run_on_node(host::NodeId id, NodeTask fn);

  /// Crash-restarts one node in place (Peer::restart).
  void restart_node(host::NodeId id);

  /// Aggregate traffic of every completed run: each node adds its counters
  /// when stop() joins it, so while the cluster runs this returns the
  /// totals as of the last stop() (plus restarts made while stopped).
  [[nodiscard]] host::TrafficStats total_traffic() const {
    return directory_.traffic();
  }

  /// Attaches the observability recorder (nullptr detaches; not owned). The
  /// Recorder is single-threaded by contract, so a wall-clock runtime only
  /// touches it from the driver thread: start() records the engine-start
  /// event, stop() absorbs the final traffic snapshot and records
  /// engine-stop after the node threads have joined. Per-event tracing is a
  /// simulator feature (DESIGN.md §11). Call before start().
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  Directory directory_;
  Network network_;
  std::vector<std::unique_ptr<NetworkEndpoint>> endpoints_;
  std::vector<std::unique_ptr<Peer>> peers_;
  bool running_ = false;
  obs::Recorder* recorder_ = nullptr;  // Driver-thread only; see set_recorder.
};

}  // namespace adam2::runtime
