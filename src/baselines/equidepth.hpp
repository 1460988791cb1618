// EquiDepth baseline (Haridasan & van Renesse, ref [3]): gossip-based
// distribution estimation with equi-depth histogram synopses.
//
// Each node keeps a bounded synopsis of weighted value centroids. A phase
// starts with the node's own value; every exchange unions the two synopses
// and recompresses to the bin budget. Because a peer's synopsis re-enters
// counting on every exchange, previously seen mass is duplicated — the
// "sample duplication" the paper blames for EquiDepth's error floor (§VII-A).
// Unlike Adam2, the bins are never refined from a previous estimate, so the
// error does not improve across phases (§VII-C, Fig. 8).
//
// Phases mirror Adam2 instances (same frequency, duration, and bin count) to
// keep the comparison fair, as in the paper.
#pragma once

#include <optional>
#include <vector>

#include "core/evaluation.hpp"
#include "core/tombstones.hpp"
#include "host/agent.hpp"
#include "sim/cycle_engine.hpp"
#include "stats/cdf.hpp"
#include "stats/error_metrics.hpp"
#include "stats/histogram.hpp"
#include "wire/messages.hpp"

namespace adam2::baselines {

/// A phase starts only when a driver calls start_phase (scripted mode).
struct EquiDepthConfig {
  std::size_t bins = 50;          ///< Synopsis capacity (the paper's lambda).
  std::uint16_t phase_ttl = 25;   ///< Rounds per phase.
};

/// A completed phase's outcome at one node, or the CDF a joiner inherited
/// from its bootstrap contact.
struct EquiDepthEstimate {
  wire::InstanceId phase;
  host::Round completed_round = 0;
  stats::PiecewiseLinearCdf cdf;
  std::vector<stats::WeightedValue> synopsis;
};

class EquiDepthAgent final : public host::NodeAgent {
 public:
  explicit EquiDepthAgent(EquiDepthConfig config);

  void on_round_start(host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> make_request(
      host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> handle_request(
      host::AgentContext& ctx, std::span<const std::byte> request) override;
  void handle_response(host::AgentContext& ctx,
                       std::span<const std::byte> response) override;
  [[nodiscard]] std::vector<std::byte> make_bootstrap_request(
      host::AgentContext& ctx) override;
  [[nodiscard]] std::vector<std::byte> handle_bootstrap_request(
      host::AgentContext& ctx, std::span<const std::byte> request) override;
  bool handle_bootstrap_response(host::AgentContext& ctx,
                                 std::span<const std::byte> response) override;

  /// Starts a phase on this node (scripted mode).
  wire::InstanceId start_phase(host::AgentContext& ctx);

  [[nodiscard]] const std::optional<EquiDepthEstimate>& estimate() const {
    return estimate_;
  }
  [[nodiscard]] std::size_t active_phase_count() const { return active_.size(); }

  /// Current synopsis of a running phase (empty when not participating).
  [[nodiscard]] std::vector<stats::WeightedValue> phase_synopsis(
      wire::InstanceId id) const;

 private:
  struct Phase {
    wire::InstanceId id;
    host::Round start_round = 0;
    std::uint16_t ttl = 0;
    std::vector<stats::WeightedValue> synopsis;
  };

  [[nodiscard]] bool eligible(const host::AgentContext& ctx,
                              const wire::EquiDepthMessage& msg) const;
  [[nodiscard]] Phase join_phase(const host::AgentContext& ctx,
                                 const wire::EquiDepthMessage& msg) const;
  void merge(Phase& phase, const std::vector<stats::WeightedValue>& other);
  void finalize(Phase&& phase);
  [[nodiscard]] wire::EquiDepthMessage message_for(
      const Phase& phase, wire::MessageType type, host::NodeId self) const;

  EquiDepthConfig config_;
  /// Running phases in join/start order, found by a scan (a node runs a
  /// few at once). Traversals (TTL pass, the which-phase-gossips-now pick)
  /// walk this order, so gossip content is a function of protocol history.
  std::vector<Phase> active_;
  std::optional<EquiDepthEstimate> estimate_;
  std::uint32_t next_seq_ = 0;
  /// Tombstones of finished phases (core/tombstones.hpp).
  core::TombstoneRing finalized_;
  /// Backs the spans returned by make_request/handle_request (the baseline
  /// is not a hot path; a reused owning buffer satisfies the agent contract).
  std::vector<std::byte> wire_scratch_;
};

// The EquiDepth evaluators mirror core::evaluate_estimates and
// core::evaluate_instance_cdf / _points: each is one errors_of callback over
// core::aggregate_errors, with EquiDepth's own peer-sampler salt. A peer
// with no estimate or synopsis to evaluate counts as missing.

/// Errors of the peers' completed EquiDepth estimates over the entire CDF
/// domain.
[[nodiscard]] core::PopulationErrors evaluate_equidepth(
    sim::CycleEngine& engine, const stats::EmpiricalCdf& truth,
    const core::EvaluationOptions& options = {});

/// In-flight errors of a running phase over the entire CDF domain (each
/// peer's synopsis as a CDF).
[[nodiscard]] core::PopulationErrors evaluate_equidepth_phase_cdf(
    sim::CycleEngine& engine, wire::InstanceId phase,
    const stats::EmpiricalCdf& truth,
    const core::EvaluationOptions& options = {});

/// In-flight errors of a running phase at its synopsis bin positions
/// ("selected bins", Fig. 6(b)/12(b)).
[[nodiscard]] core::PopulationErrors evaluate_equidepth_phase_points(
    sim::CycleEngine& engine, wire::InstanceId phase,
    const stats::EmpiricalCdf& truth,
    const core::EvaluationOptions& options = {});

}  // namespace adam2::baselines
