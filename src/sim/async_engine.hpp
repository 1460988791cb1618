// Event-driven asynchronous simulation mode (PeerSim's event-driven
// analogue).
//
// The cycle-driven CycleEngine assumes globally synchronised rounds. Real
// deployments have neither synchronised clocks nor instant messages: each
// node gossips on its own jittered timer and messages take a random one-way
// latency. AsyncEngine models exactly that with a discrete-event queue while
// hosting the *same* NodeAgent implementations — demonstrating that the
// protocol only relies on the request/response exchange semantics, not on
// round synchrony (§VII-F: the gossip period is bounded below by the message
// round-trip time).
//
// Event kinds:
//   * node tick      — the node runs its round-start hook and initiates one
//                      exchange; the next tick is scheduled one jittered
//                      period later;
//   * request/response delivery — after a sampled latency; dropped,
//                      duplicated, corrupted or delayed by the fault plan;
//                      deliveries to dead nodes are dropped (requester side
//                      counts a failed contact);
//   * maintenance    — overlay shuffles and churn, once per mean period.
//
// Exchange atomicity: with message latency, a node's state could change
// between sending a request and receiving the matching response, which
// permanently creates or destroys averaging mass (the well-known atomicity
// requirement of push-pull gossip). A node with an exchange in flight is
// therefore *busy*: it initiates nothing and silently refuses incoming
// requests until its response arrives or a worst-case-RTT timeout passes.
// With that discipline the averaging conserves mass exactly (up to messages
// the fault plan drops, `faults.drop_rate`).
//
// A node's protocol "round" is its own tick count, so TTLs advance at the
// node's pace exactly as §IV describes.
#pragma once

#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "host/agent.hpp"
#include "host/fault.hpp"
#include "host/overlay.hpp"
#include "host/types.hpp"
#include "sim/population.hpp"

namespace adam2::sim {

struct AsyncConfig {
  double gossip_period = 1.0;   ///< Mean seconds between a node's initiations.
  double period_jitter = 0.05;  ///< Relative uniform jitter per period.
  double latency_min = 0.010;   ///< One-way message latency bounds (uniform).
  double latency_max = 0.100;
  /// Fraction of nodes replaced per second (0.001 at a 1 s period matches
  /// the paper's typical churn).
  double churn_per_second = 0.0;
  std::uint64_t seed = 0xa5ada2;
  /// Deterministic fault schedule; `faults.drop_rate` is the one
  /// message-loss knob. The event-driven engine expresses the full taxonomy
  /// including bounded extra delay, which reorders deliveries through the
  /// event queue. Default: no faults, bit-identical replay.
  host::FaultPlan faults;
};

/// The event-driven engine has no synchronised rounds, so with a recorder
/// attached its trace coverage is the lifecycle taxonomy: one kRoundEnd per
/// maintenance cycle (with the traffic totals absorbed into the metrics
/// registry), plus crash-restarts and churn joins/departures. Per-exchange
/// fate events are a cycle-engine feature — here message legs resolve
/// independently inside the event queue and are fully counted by the
/// traffic.* metrics (DESIGN.md §11).
class AsyncEngine final : public Population {
 public:
  AsyncEngine(AsyncConfig config, std::vector<stats::Value> initial_attributes,
              std::unique_ptr<host::Overlay> overlay,
              host::AgentFactory agent_factory,
              host::AttributeSource attribute_source);

  /// Processes events until simulated time reaches `time` (seconds).
  void run_until(double time);

  [[nodiscard]] double now() const { return now_; }

  /// Global round index: elapsed mean periods (used for instance
  /// eligibility; individual nodes tick at their own jittered pace).
  [[nodiscard]] host::Round round() const override {
    return static_cast<host::Round>(now_ / config_.gossip_period);
  }

  // -- Checkpoint / resume (host::snapshot, DESIGN.md §12) ---------------

  /// Serialises the engine's complete deterministic state, including the
  /// event queue (drained in pop order — the canonical (time, seq) order)
  /// and the virtual-time busy set. Throws host::snapshot::SnapshotError
  /// when an attached agent or overlay type has no snapshot support.
  [[nodiscard]] std::vector<std::byte> save_snapshot() const;

  /// Restores a snapshot produced by save_snapshot on an engine built with
  /// the same configuration. Resume + run_until(T) is bit-identical to the
  /// uninterrupted run. Throws wire::DecodeError on malformed or mismatched
  /// input, leaving the engine untouched.
  void restore_snapshot(std::span<const std::byte> bytes);

 private:
  enum class EventKind : std::uint8_t {
    kNodeTick,
    kRequestDelivery,
    kResponseDelivery,
    kMaintenance,
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break for identical timestamps.
    EventKind kind = EventKind::kNodeTick;
    host::NodeId from = 0;
    host::NodeId to = 0;
    std::vector<std::byte> payload;
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  void schedule(double time, EventKind kind, host::NodeId from, host::NodeId to,
                std::vector<std::byte> payload = {});
  void handle(Event&& event);
  void on_tick(host::NodeId id);
  void on_request(Event&& event);
  void on_response(Event&& event);
  void on_maintenance();
  /// A churned-in node gets a busy-set entry and its first tick one jittered
  /// period from now.
  void on_join(host::NodeId id) override;
  /// The busy lock dies with the old agent; a stale in-flight response is
  /// ignored (departed), dropped by the birth_round guard (cold restart) or
  /// merges harmlessly into the carried-over state (warm: same instances).
  void on_agent_reset(host::NodeId id) override { clear_busy(id); }
  /// Runs one leg through the exchange fabric (partitions, fates, injected
  /// delay) and schedules each surviving copy with its own sampled
  /// latency, so duplicates genuinely reorder through the event queue.
  void deliver(EventKind kind, host::NodeId from, host::NodeId to,
               std::span<const std::byte> payload, rng::Rng& fault_stream);
  [[nodiscard]] double sample_latency();
  [[nodiscard]] double next_period();

  [[nodiscard]] bool is_busy(host::NodeId id) const;
  void set_busy(host::NodeId id);
  void clear_busy(host::NodeId id);

  AsyncConfig config_;
  /// Indexed by id: the time a node's exchange lock expires, or NaN when it
  /// holds none. An entry outlives its time until a response, crash or
  /// churn clears it, and only live nodes hold one.
  std::vector<double> busy_until_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

}  // namespace adam2::sim
