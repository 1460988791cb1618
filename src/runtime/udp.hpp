// Real-socket deployment path: Adam2 agents gossiping over loopback UDP.
//
// UdpEndpoint frames Envelopes onto UDP datagrams
// ([kind u8][from u64][token u64][payload]) on a 127.0.0.1 socket with an
// OS-assigned port. UdpPeer hosts one NodeAgent on its own thread, driving
// the same tick / busy-lock / NACK / stale-token discipline as the
// in-process Cluster — but with genuine sockets, so the protocol stack is
// exercised against real datagram semantics (kernel buffering, drops under
// pressure). Peer discovery is a static Directory (id -> port) shared by
// all peers, standing in for whatever membership service a deployment uses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "host/ledger.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "runtime/transport.hpp"
#include "host/agent.hpp"
#include "sim/overlay.hpp"
#include "host/traffic.hpp"

namespace adam2::runtime {

/// A bound loopback UDP socket speaking the Envelope framing.
class UdpEndpoint {
 public:
  /// Binds 127.0.0.1 with an ephemeral port. Throws on failure.
  UdpEndpoint();
  ~UdpEndpoint();

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Sends an envelope to a loopback port. Returns false on send failure.
  bool send(std::uint16_t to_port, const Envelope& envelope);

  /// Receives one envelope, waiting at most `timeout`. Returns nullopt on
  /// timeout, socket closure, or an undecodable datagram — the last case is
  /// counted in rejected_datagrams(), so truncation on the wire is
  /// distinguishable from plain silence.
  [[nodiscard]] std::optional<Envelope> receive(
      std::chrono::microseconds timeout);

  /// Datagrams discarded because they were shorter than the envelope header
  /// or carried an invalid kind byte (truncation/corruption on the wire).
  /// Safe to read from any thread.
  [[nodiscard]] std::uint64_t rejected_datagrams() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Unblocks receivers and makes further sends fail.
  void shutdown();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> rejected_{0};
};

/// Static membership + address book shared by all peers of one deployment:
/// node id -> UDP port, plus the attribute directory that stands in for the
/// peer-sampling value cache. Doubles as the host::Overlay and host::HostView
/// the agents see.
class UdpDirectory final : public host::Overlay, public host::HostView {
 public:
  UdpDirectory(std::vector<stats::Value> attributes,
               std::vector<std::uint16_t> ports);

  [[nodiscard]] std::uint16_t port_of(host::NodeId id) const {
    return ports_[static_cast<std::size_t>(id)];
  }

  // -- host::Overlay (full random membership) -----------------------------
  void add_node(host::NodeId, const host::HostView&, rng::Rng&) override {}
  void remove_node(host::NodeId) override {}
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId id, rng::Rng& rng) const override;
  [[nodiscard]] std::vector<host::NodeId> neighbors(host::NodeId id) const override;
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId id, const host::HostView& host) const override;

  // -- host::HostView ------------------------------------------------------
  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return id < attributes_.size();
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return attributes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] host::Round round() const override { return 0; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(host::NodeId, host::NodeId, host::Channel channel,
                      std::size_t bytes) override;

  [[nodiscard]] host::TrafficStats traffic() const;

  /// Folds a peer's local counters (fault injection, rejected datagrams)
  /// into the shared ledger, so fault-injection runs and real runs report
  /// the same fields through host::metrics.
  void merge_traffic(const host::TrafficStats& stats) { ledger_.merge(stats); }

  /// Absorbs the current ledger snapshot into `recorder`'s metrics registry.
  /// The Recorder is single-threaded by contract, so call this from the
  /// driver thread — typically after every peer has stopped, when the
  /// counters are exact (each UdpPeer::stop() merges its local counters into
  /// the ledger first).
  void publish_traffic(obs::Recorder& recorder) const {
    recorder.set_traffic(traffic());
  }

 private:
  std::vector<stats::Value> attributes_;
  std::vector<std::uint16_t> ports_;
  std::vector<host::NodeId> ids_;
  host::SharedTrafficLedger ledger_;
};

struct UdpPeerConfig {
  std::chrono::microseconds gossip_period{3000};
  double period_jitter = 0.2;
  std::chrono::microseconds response_timeout{30000};
  std::uint64_t seed = 1;
  /// Deterministic fault schedule for outgoing gossip datagrams (drop,
  /// duplication, corruption — exercised against real sockets, so corrupted
  /// bytes cross the kernel and hit the receiver's validation walk). The
  /// plan's warm_restart knob selects whether UdpPeer::restart carries the
  /// agent's protocol state across.
  host::FaultPlan faults;
};

/// One protocol node over a real socket; owns its agent and thread. The
/// request→response state machine (busy lock, NACK, stale-token rejection,
/// faulty sends) lives in the shared host::SessionedPort; this class is the
/// port's Transport adapter over the UDP endpoint plus the thread plumbing.
class UdpPeer final : private host::SessionedPort::Transport {
 public:
  UdpPeer(UdpPeerConfig config, host::NodeId id, UdpDirectory& directory,
          UdpEndpoint& endpoint, std::unique_ptr<host::NodeAgent> agent);
  ~UdpPeer();

  void start();
  void stop();

  /// Executes `fn(agent, ctx)` on the peer's thread (blocking), as
  /// Cluster::run_on_node does.
  void run_on_peer(const std::function<void(host::NodeAgent&,
                                            host::AgentContext&)>& fn);

  /// Crash-restarts this peer's agent in place (host::restart_agent), on
  /// the peer's own thread (blocking; inline while stopped). With
  /// `config.faults.warm_restart` the agent's protocol state is carried
  /// across through the host::snapshot hooks (DESIGN.md §12); cold restarts
  /// lose it. The in-flight exchange is abandoned but the port's token
  /// counter survives, so the first post-restart initiation stamps a fresh
  /// token and straggler datagrams answering the pre-crash exchange are
  /// rejected as stale, not merged. Counted in crash_restarts.
  void restart(const host::AgentFactory& factory);

 private:
  void run();
  void tick(host::AgentContext& ctx);
  void handle(host::AgentContext& ctx, Envelope&& envelope);
  host::AgentContext make_context();
  void drain_tasks();

  // -- host::SessionedPort::Transport (loopback-datagram adapter) ----------
  bool send_request(host::NodeId to, std::uint64_t token,
                    std::span<const std::byte> payload) override;
  bool send_response(host::NodeId to, std::uint64_t token,
                     std::span<const std::byte> payload) override;
  void send_busy(host::NodeId to, std::uint64_t token) override;
  void record_gossip_sent(host::NodeId peer, std::size_t bytes) override;
  void record_gossip_received(host::NodeId peer, std::size_t bytes) override;
  bool send_envelope(host::NodeId to, EnvelopeKind kind, std::uint64_t token,
                     std::span<const std::byte> payload);

  UdpPeerConfig config_;
  host::NodeId id_;
  UdpDirectory& directory_;
  UdpEndpoint& endpoint_;
  std::unique_ptr<host::NodeAgent> agent_;
  rng::Rng rng_;
  /// The shared exchange fabric (fault plan only: its drop_rate is the one
  /// injected loss; latency and reordering come from real datagrams).
  host::Conduit conduit_;
  rng::Rng fault_rng_;
  /// Local fault/reliability counters, merged into the directory ledger at
  /// stop() so every substrate reports the same schema.
  host::TrafficStats traffic_;
  /// Endpoint rejections already folded into the ledger (stop() reports the
  /// delta, so repeated start/stop cycles never double-count).
  std::uint64_t rejected_reported_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  host::Round local_round_ = 0;
  /// Declared after conduit_, fault_rng_ and traffic_ (it references all
  /// three).
  host::SessionedPort port_;
  std::mutex tasks_mutex_;
  std::vector<std::function<void(host::NodeAgent&, host::AgentContext&)>> tasks_;
};

}  // namespace adam2::runtime
