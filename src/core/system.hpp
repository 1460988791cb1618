// Adam2System: the convenience facade tying the substrates together.
//
// Builds a CycleEngine over the chosen overlay, one Adam2Agent per node, and
// exposes instance control plus result access — the public API the examples
// and most experiments use. Scripted experiments start instances explicitly;
// setting Adam2Config::restart_every_r > 0 instead lets nodes self-select
// probabilistically as in a real deployment (§IV).
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "core/protocol.hpp"
#include "obs/recorder.hpp"
// Adam2System is the convenience facade that *assembles* a simulator around
// the protocol; it deliberately sits on top of sim/ and is kept in core:: so
// the examples' and experiments' entry point stays `core::Adam2System`.
// Documented layering exception (DESIGN.md §10): nothing else in core/ may
// name a concrete engine.
#include "sim/cyclon.hpp"        // adam2-lint: allow(layering)
#include "sim/cycle_engine.hpp"  // adam2-lint: allow(layering)

namespace adam2::core {

enum class OverlayKind : std::uint8_t {
  kStaticRandom,  ///< Fixed random graph.
  kCyclon,        ///< Gossip peer sampling (default; feeds neighbour bootstrap).
};

struct SystemConfig {
  sim::EngineConfig engine;
  Adam2Config protocol;
  OverlayKind overlay = OverlayKind::kCyclon;
  /// Degree of the static graph / view size of Cyclon.
  std::size_t overlay_degree = 20;
  /// Worker threads for the cycle engine's sharded phases (0 and 1: none).
  /// Results are bit-identical at any thread count.
  std::size_t engine_threads = 0;
};

class Adam2System {
 public:
  /// Builds a system of `attributes.size()` nodes holding those values.
  /// `churn_source` provides attribute values for churned-in nodes (required
  /// when engine.churn_rate > 0, unused otherwise).
  Adam2System(SystemConfig config, std::vector<stats::Value> attributes,
              host::AttributeSource churn_source = nullptr);

  [[nodiscard]] sim::CycleEngine& engine() { return *engine_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Attaches `recorder` to the underlying engine, records the engine-start
  /// event, and echoes the effective configuration into the recorder's run
  /// manifest (seed, engine kind, protocol and overlay parameters). The
  /// facade also traces instance transitions through it. Pass nullptr to
  /// detach. The recorder is not owned and must outlive the system.
  void attach_recorder(obs::Recorder* recorder);

  /// The Adam2 agent running on `id`.
  [[nodiscard]] Adam2Agent& agent_of(host::NodeId id);

  /// Ground-truth CDF of the current live population.
  [[nodiscard]] stats::EmpiricalCdf truth() const;

  /// Starts an aggregation instance on `initiator` (default: random node).
  wire::InstanceId start_instance(std::optional<host::NodeId> initiator = {});

  /// Starts an instance and runs rounds until it has terminated everywhere;
  /// afterwards every participating node holds a fresh Estimate.
  wire::InstanceId run_instance(std::optional<host::NodeId> initiator = {});

  void run_rounds(std::size_t count) { engine_->run_rounds(count); }

  /// Population errors of the completed estimates against current truth.
  [[nodiscard]] PopulationErrors errors(
      const EvaluationOptions& options = {}) const;

 private:
  /// Shared start path returning the resolved initiator alongside the id
  /// (run_instance needs it for the instance-end trace event).
  std::pair<host::NodeId, wire::InstanceId> start_instance_on(
      std::optional<host::NodeId> initiator);

  SystemConfig config_;
  std::unique_ptr<sim::CycleEngine> engine_;
};

/// Builds the overlay for `kind` (shared with the baselines' drivers).
[[nodiscard]] std::unique_ptr<host::Overlay> make_overlay(OverlayKind kind,
                                                         std::size_t degree);

}  // namespace adam2::core
