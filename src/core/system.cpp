#include "core/system.hpp"

#include <algorithm>
#include <stdexcept>

// Facade TU: builds the concrete overlay for the engine it assembles.
// Documented layering exception (DESIGN.md §10), same as system.hpp.
#include "sim/overlay.hpp"  // adam2-lint: allow(layering)

namespace adam2::core {

std::unique_ptr<host::Overlay> make_overlay(OverlayKind kind,
                                           std::size_t degree) {
  switch (kind) {
    case OverlayKind::kStaticRandom:
      return std::make_unique<sim::StaticRandomOverlay>(degree);
    case OverlayKind::kCyclon: {
      sim::CyclonConfig config;
      config.view_size = degree;
      config.shuffle_size = std::max<std::size_t>(1, degree / 2);
      return std::make_unique<sim::CyclonOverlay>(config);
    }
  }
  throw std::invalid_argument("unknown overlay kind");
}

Adam2System::Adam2System(SystemConfig config,
                         std::vector<stats::Value> attributes,
                         host::AttributeSource churn_source)
    : config_(config) {
  const Adam2Config protocol = config_.protocol;
  auto factory = [protocol](const host::AgentContext&) {
    return std::make_unique<Adam2Agent>(protocol);
  };
  engine_ = std::make_unique<sim::CycleEngine>(
      config_.engine, std::move(attributes),
      make_overlay(config_.overlay, config_.overlay_degree),
      std::move(factory), std::move(churn_source), config_.engine_threads);
}

void Adam2System::attach_recorder(obs::Recorder* recorder) {
  engine_->set_recorder(recorder);
  if (recorder == nullptr) return;
  recorder->engine_start(config_.engine_threads > 1 ? "parallel" : "serial",
                         engine_->round(), engine_->live_count());
  obs::RunManifest& manifest = recorder->manifest();
  manifest.seed = config_.engine.seed;
  manifest.threads = std::max<std::size_t>(config_.engine_threads, 1);
  manifest.set("nodes", static_cast<std::uint64_t>(engine_->live_count()));
  manifest.set("churn_rate", config_.engine.churn_rate);
  manifest.set("overlay", config_.overlay == OverlayKind::kCyclon
                              ? "cyclon"
                              : "static_random");
  manifest.set("overlay_degree",
               static_cast<std::uint64_t>(config_.overlay_degree));
  manifest.set("lambda", static_cast<std::uint64_t>(config_.protocol.lambda));
  manifest.set("instance_ttl",
               static_cast<std::uint64_t>(config_.protocol.instance_ttl));
}

Adam2Agent& Adam2System::agent_of(host::NodeId id) {
  auto* agent = dynamic_cast<Adam2Agent*>(&engine_->agent(id));
  if (agent == nullptr) throw std::logic_error("node is not running Adam2");
  return *agent;
}

stats::EmpiricalCdf Adam2System::truth() const {
  return stats::EmpiricalCdf{engine_->live_attribute_values()};
}

std::pair<host::NodeId, wire::InstanceId> Adam2System::start_instance_on(
    std::optional<host::NodeId> initiator) {
  // value_or draws eagerly, so every start consumes exactly one global draw
  // whether or not an initiator was supplied (golden-replay stability).
  const host::NodeId node = initiator.value_or(engine_->random_live_node());
  auto ctx = engine_->context_for(node);
  const wire::InstanceId id = agent_of(node).start_instance(ctx);
  if (obs::Recorder* recorder = engine_->recorder(); recorder != nullptr) {
    // InstanceId = {initiator, seq}; the event's node field carries the
    // initiator, so the sequence number alone identifies the instance.
    recorder->instance_start(engine_->round(), node, id.seq);
  }
  return {node, id};
}

wire::InstanceId Adam2System::start_instance(
    std::optional<host::NodeId> initiator) {
  return start_instance_on(initiator).second;
}

wire::InstanceId Adam2System::run_instance(
    std::optional<host::NodeId> initiator) {
  const auto [node, id] = start_instance_on(initiator);
  // ttl exchange rounds plus the round whose round-start finalises it.
  engine_->run_rounds(config_.protocol.instance_ttl + 1u);
  if (obs::Recorder* recorder = engine_->recorder(); recorder != nullptr) {
    recorder->instance_end(engine_->round(), node, id.seq);
  }
  return id;
}

PopulationErrors Adam2System::errors(const EvaluationOptions& options) const {
  return evaluate_estimates(*engine_, truth(), options);
}

}  // namespace adam2::core
