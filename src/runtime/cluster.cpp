#include "runtime/cluster.hpp"

#include <stdexcept>

namespace adam2::runtime {

Cluster::Cluster(ClusterConfig config, std::vector<stats::Value> attributes,
                 host::AgentFactory agent_factory)
    : directory_(std::move(attributes)) {
  if (directory_.size() == 0) throw std::invalid_argument("empty cluster");
  for (host::NodeId id = 0; id < directory_.size(); ++id) {
    endpoints_.push_back(std::make_unique<NetworkEndpoint>(network_, id));
    peers_.push_back(std::make_unique<Peer>(config, id, directory_,
                                            *endpoints_.back(), agent_factory));
  }
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  if (running_) return;
  running_ = true;
  // Recorder access stays on the driver thread (Recorder is not
  // thread-safe); round 0 because wall-clock runtimes have no round counter.
  if (recorder_ != nullptr) {
    recorder_->engine_start("cluster", 0, peers_.size());
  }
  for (auto& peer : peers_) peer->start();
}

void Cluster::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& peer : peers_) peer->stop();
  // Threads have joined and added their counters: the ledger is exact now,
  // so absorb the final snapshot into the metrics registry.
  if (recorder_ != nullptr) {
    recorder_->set_traffic(total_traffic());
    recorder_->engine_stop(0);
  }
}

void Cluster::run_on_node(host::NodeId id, NodeTask fn) {
  peers_.at(static_cast<std::size_t>(id))->run_on_peer(fn);
}

void Cluster::restart_node(host::NodeId id) {
  peers_.at(static_cast<std::size_t>(id))->restart();
  // Recorder access stays on the driver thread (round 0: no global rounds).
  if (recorder_ != nullptr) recorder_->crash_restart(0, id);
}

}  // namespace adam2::runtime
