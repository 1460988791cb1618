// The Adam2 per-node protocol (§IV-§VI) as a simulator agent.
//
// Each node continuously runs: probabilistic instance creation with
// Ps = 1/(Np*R); joining instances it hears about through gossip; symmetric
// push-pull averaging of interpolation points, verification points, and the
// size-estimation weight; TTL-driven termination producing an Estimate; and
// (optionally) lambda self-tuning from the instance's self-assessment.
//
// Two join policies are supported (DESIGN.md §1): the default mass-conserving
// join, under which every instance's point averages converge exactly to the
// true fractions, and the paper-literal Figure-1 rule kept for the ablation
// bench.
#pragma once

#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/estimate.hpp"
#include "core/instance.hpp"
#include "core/instance_store.hpp"
#include "core/tombstones.hpp"
#include "host/agent.hpp"

namespace adam2::core {

class Adam2Agent : public host::NodeAgent {
 public:
  explicit Adam2Agent(Adam2Config config);

  // -- host::NodeAgent ------------------------------------------------------
  void on_round_start(host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> make_request(
      host::AgentContext& ctx) override;
  [[nodiscard]] std::span<const std::byte> handle_request(
      host::AgentContext& ctx, std::span<const std::byte> request) override;
  void handle_response(host::AgentContext& ctx,
                       std::span<const std::byte> response) override;
  /// Level 0: the agent object; 1: its live instance slots; 2: their H
  /// and V series.
  bool prefetch(std::size_t level) const override;
  [[nodiscard]] std::vector<std::byte> make_bootstrap_request(
      host::AgentContext& ctx) override;
  [[nodiscard]] std::vector<std::byte> handle_bootstrap_request(
      host::AgentContext& ctx, std::span<const std::byte> request) override;
  bool handle_bootstrap_response(host::AgentContext& ctx,
                                 std::span<const std::byte> response) override;

  // -- host::snapshot integration (DESIGN.md §12) ---------------------------
  // The blob covers every field that influences future behaviour: live
  // lambda, the instance store in iteration order, the working estimate and
  // combine history, the finalisation tombstones, Np, sequence and epoch
  // counters. config_ itself is echoed (not restored): the factory that
  // rebuilds the agent must already agree on it, and a mismatch rejects the
  // blob instead of silently resuming under different protocol parameters.
  [[nodiscard]] bool save_state(wire::Writer& out) const override;
  [[nodiscard]] bool restore_state(wire::Reader& in) override;

  // -- Experiment control / introspection ----------------------------------

  /// Starts a new aggregation instance on this node (scripted experiments;
  /// probabilistic mode calls this internally). Returns the new instance id.
  wire::InstanceId start_instance(host::AgentContext& ctx);

  /// The node's most recent CDF estimate, if any.
  [[nodiscard]] const std::optional<Estimate>& estimate() const {
    return estimate_;
  }

  /// Current system-size estimate Np (0 = none yet).
  [[nodiscard]] double n_estimate() const { return n_estimate_; }

  [[nodiscard]] std::size_t active_instance_count() const {
    return store_.size();
  }
  /// The live state of instance `id` on this node, or nullptr. The pointer
  /// (not the point storage) is invalidated by the next instance
  /// start/join/expiry — hold it only within one inspection pass.
  [[nodiscard]] const InstanceSlot* instance(wire::InstanceId id) const {
    return store_.find(id);
  }
  [[nodiscard]] std::size_t completed_instances() const { return completed_; }

  [[nodiscard]] const Adam2Config& config() const { return config_; }

  /// Lambda that the *next* instance started here will use (changes under
  /// adaptive tuning).
  [[nodiscard]] std::size_t current_lambda() const { return lambda_; }

 protected:
  // Extension hooks (multi-value nodes override these, §IV "Multiple
  // Attribute Values per Node").

  /// This node's initial contribution for a threshold t.
  [[nodiscard]] virtual ContributionFn contribution_fn(
      const host::AgentContext& ctx) const;

  /// This node's local extreme attribute values.
  [[nodiscard]] virtual std::pair<double, double> local_extremes(
      const host::AgentContext& ctx) const;

  /// Lets extensions add bookkeeping thresholds before an instance starts.
  virtual void augment_thresholds(std::vector<double>& /*thresholds*/) const {}

  /// Lets extensions rewrite the converged points before interpolation.
  virtual void finalize_points(std::vector<stats::CdfPoint>& /*points*/,
                               std::vector<stats::CdfPoint>& /*verification*/)
      const {}

 private:
  /// `active`: this agent holds a live slot for `id`, which is then known
  /// not to be a tombstone (see the invariant on finalized_).
  [[nodiscard]] bool eligible(const host::AgentContext& ctx,
                              std::uint32_t start_round, wire::InstanceId id,
                              bool active) const;
  /// Turns the finished instance `id` into the node's estimate; erases its
  /// slot, then records its tombstone.
  void finalize(wire::InstanceId id);
  [[nodiscard]] std::vector<double> choose_thresholds(host::AgentContext& ctx);
  [[nodiscard]] std::vector<double> choose_verification(
      host::AgentContext& ctx, double lo, double hi);
  void apply_adaptive_tuning(const stats::ErrorPair& assessment);

  Adam2Config config_;
  std::size_t lambda_;  ///< Live lambda (config_.lambda + adaptive tuning).
  /// Live instances, one vector of slots in join/start order (DESIGN.md
  /// §7.5). Every traversal (TTL pass, wire emission, the
  /// unmentioned-instances reply pass) walks that order: emitted payload
  /// order is part of the replay contract.
  InstanceStore store_;
  std::optional<Estimate> estimate_;
  /// Raw per-instance estimates kept for point combining (§VII-D), oldest
  /// first; bounded by config_.combine_last_instances and empty (no
  /// storage) unless it is above 1.
  std::vector<Estimate> history_;
  /// Tombstones of recently finalised instances (core/tombstones.hpp): a
  /// straggler's message must not resurrect an instance this node already
  /// completed. Invariant: no id is both here and in store_. A payload
  /// joins only if its id is not a tombstone, finalize() erases the slot
  /// before recording the id, and restore_state refuses a state that
  /// holds both. So a payload of a live slot skips the ring's linear scan,
  /// and an exchange's cost does not grow with the tombstones held.
  TombstoneRing finalized_;
  double n_estimate_ = 0.0;
  std::uint32_t next_seq_ = 0;
  std::size_t completed_ = 0;
  /// Monotone counter backing InstanceSlot::touched_epoch (see
  /// handle_request); bumping it invalidates all marks in O(1).
  std::uint64_t request_epoch_ = 0;
};

}  // namespace adam2::core
