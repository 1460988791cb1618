// Population-level error evaluation (§III aggregates):
//
//   Errm = max over peers of Errm(p),   Erra = avg over peers of Erra(p),
//
// computed either from the peers' completed Estimates or from the in-flight
// state of a specific instance (per-round curves like Fig. 6/12). Evaluating
// every peer is exact but O(N * (V + lambda)); a uniform peer sample is
// supported for large sweeps (the paper reports cross-peer standard
// deviations below 1e-5, so sampling loses essentially nothing).
//
// Every evaluator is one `errors_of` callback over aggregate_errors, the
// one per-peer reduction; the EquiDepth baseline's evaluators
// (baselines/equidepth.hpp) are callbacks over it too, so both protocols
// are compared over the same sampled peers by the same arithmetic.
//
// The evaluators are templates over the hosting engine: both the
// cycle-driven sim::CycleEngine and the event-driven sim::AsyncEngine expose
// the required surface (live_ids/node/agent/rng).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "core/protocol.hpp"
// WorkerPool is the substrates' fork-join pool; the sharded evaluation mode
// borrows it so the claiming counter and all synchronisation stay inside
// host/.
#include "host/pool.hpp"
#include "stats/error_metrics.hpp"
#include "stats/summary.hpp"

namespace adam2::core {

struct EvaluationOptions {
  /// Evaluate at most this many uniformly sampled live peers (0 = all).
  std::size_t peer_sample = 0;

  /// Only evaluate peers born at or before this round (excludes nodes that
  /// joined during the instance under evaluation, as Fig. 12 does, §VII-G).
  /// Estimates inherited at join time count like any other.
  std::optional<wire::Round> born_by;

  /// Peers without a usable estimate count with the maximum error of one
  /// (the paper's convention while an instance has not reached everyone).
  bool missing_counts_as_one = true;

  /// Worker threads for the per-peer error computation (<= 1 = serial).
  /// Results are reduced serially in fixed peer order, so the six
  /// PopulationErrors fields are bit-identical at any thread count.
  std::size_t threads = 1;
};

struct PopulationErrors {
  double max_err = 0.0;      ///< Errm: max over peers of max distance.
  double avg_err = 0.0;      ///< Erra: avg over peers of avg distance.
  double stddev_max = 0.0;   ///< Cross-peer stddev of Errm(p).
  double stddev_avg = 0.0;   ///< Cross-peer stddev of Erra(p).
  std::size_t peers = 0;     ///< Peers evaluated.
  std::size_t missing = 0;   ///< Peers lacking a usable estimate.
};

/// Adam2's peer-sampler salt. The EquiDepth evaluators pass their own;
/// changing either moves every sampled row of the figures that print them.
inline constexpr std::uint64_t kAdam2PeerSampleSalt = 0xE7A10000ULL;

/// The live peer ids an evaluator visits: all of them, or `peer_sample`
/// (> 0) of them drawn uniformly. Sampling uses a private stream seeded from
/// the round number and `salt`, so observing the system never perturbs the
/// protocol's randomness (evaluating or not evaluating leaves every later
/// round bit-identical).
template <typename Host>
std::vector<wire::NodeId> pick_peers(
    Host& engine, std::size_t peer_sample,
    std::uint64_t salt = kAdam2PeerSampleSalt) {
  const auto live = engine.live_ids();
  std::vector<wire::NodeId> peers(live.begin(), live.end());
  if (peer_sample > 0 && peers.size() > peer_sample) {
    rng::Rng sampler(salt ^ (static_cast<std::uint64_t>(engine.round()) + 1) *
                                0x9e3779b97f4a7c15ULL);
    std::vector<wire::NodeId> sampled;
    sampled.reserve(peer_sample);
    for (std::size_t idx : sampler.sample_indices(peers.size(), peer_sample)) {
      sampled.push_back(peers[idx]);
    }
    peers = std::move(sampled);
  }
  return peers;
}

/// The per-peer reduction every evaluator shares: `errors_of` returns a
/// peer's ErrorPair, or nullopt when the peer has nothing usable (counted
/// in `missing`, and as {1, 1} when options.missing_counts_as_one). The
/// peers are pick_peers(engine, options.peer_sample, salt), filtered by
/// options.born_by in that order.
///
/// With options.threads > 1 the per-peer calls — the expensive part, each a
/// full-domain error sweep — fan out over a WorkerPool. The peer list is
/// fixed up front and every worker writes only its claimed slots, so the
/// engine is read concurrently but never mutated; `errors_of` must therefore
/// be const with respect to engine state (all evaluators are). The reduction
/// deliberately stays serial and walks the slots in peer order: floating-
/// point accumulation order is what makes serial and sharded runs
/// bit-identical, which a parallel Welford merge would not be.
template <typename Host, typename ErrorsOf>
PopulationErrors aggregate_errors(Host& engine,
                                  const EvaluationOptions& options,
                                  ErrorsOf&& errors_of,
                                  std::uint64_t salt = kAdam2PeerSampleSalt) {
  std::vector<wire::NodeId> peers;
  for (wire::NodeId id : pick_peers(engine, options.peer_sample, salt)) {
    const auto& node = engine.node(id);
    if (options.born_by && node.birth_round > *options.born_by) continue;
    peers.push_back(id);
  }

  std::vector<std::optional<stats::ErrorPair>> results(peers.size());
  host::WorkerPool pool(std::min(options.threads, peers.size()));
  pool.run_indexed(peers.size(), [&](std::size_t i, std::size_t) {
    results[i] = errors_of(peers[i]);
  });

  PopulationErrors out;
  stats::RunningStat max_stat;
  stats::RunningStat avg_stat;
  for (std::optional<stats::ErrorPair>& errors : results) {
    if (!errors) {
      ++out.missing;
      if (!options.missing_counts_as_one) continue;
      errors = stats::ErrorPair{1.0, 1.0};
    }
    max_stat.add(errors->max_err);
    avg_stat.add(errors->avg_err);
  }
  out.peers = max_stat.count();
  if (out.peers > 0) {
    out.max_err = max_stat.max();
    out.avg_err = avg_stat.mean();
    out.stddev_max = max_stat.stddev();
    out.stddev_avg = avg_stat.stddev();
  }
  return out;
}

namespace detail {

template <typename Host>
const Adam2Agent* adam2_agent(Host& engine, wire::NodeId id) {
  return dynamic_cast<const Adam2Agent*>(&engine.agent(id));
}

template <typename Host>
const Estimate* usable_estimate(Host& engine, wire::NodeId id) {
  const Adam2Agent* agent = adam2_agent(engine, id);
  if (agent == nullptr || !agent->estimate()) return nullptr;
  const Estimate& est = *agent->estimate();
  if (est.cdf.empty()) return nullptr;
  return &est;
}

}  // namespace detail

/// Errors of the peers' *completed* estimates over the entire CDF domain.
template <typename Host>
PopulationErrors evaluate_estimates(Host& engine,
                                    const stats::EmpiricalCdf& truth,
                                    const EvaluationOptions& options = {}) {
  const stats::DiscreteErrorEvaluator errors_against_truth(truth);
  return aggregate_errors(
      engine, options, [&](wire::NodeId id) -> std::optional<stats::ErrorPair> {
        const Estimate* est = detail::usable_estimate(engine, id);
        if (est == nullptr) return std::nullopt;
        return errors_against_truth(est->cdf);
      });
}

/// Errors at the estimates' own interpolation points only.
template <typename Host>
PopulationErrors evaluate_estimate_points(
    Host& engine, const stats::EmpiricalCdf& truth,
    const EvaluationOptions& options = {}) {
  return aggregate_errors(
      engine, options, [&](wire::NodeId id) -> std::optional<stats::ErrorPair> {
        const Estimate* est = detail::usable_estimate(engine, id);
        if (est == nullptr || est->points.empty()) return std::nullopt;
        return stats::point_errors(truth, est->points);
      });
}

/// In-flight errors of a running instance, over the entire CDF domain
/// (each participant's current H interpolated with its current extremes).
template <typename Host>
PopulationErrors evaluate_instance_cdf(Host& engine, wire::InstanceId id,
                                       const stats::EmpiricalCdf& truth,
                                       const EvaluationOptions& options = {}) {
  const stats::DiscreteErrorEvaluator errors_against_truth(truth);
  return aggregate_errors(
      engine, options,
      [&](wire::NodeId peer) -> std::optional<stats::ErrorPair> {
        const Adam2Agent* agent = detail::adam2_agent(engine, peer);
        if (agent == nullptr) return std::nullopt;
        const InstanceSlot* state = agent->instance(id);
        if (state == nullptr) return std::nullopt;
        const auto cdf = stats::interpolate_with_extremes(
            state->points(), state->min_value, state->max_value);
        return errors_against_truth(cdf);
      });
}

/// In-flight errors of a running instance at its interpolation points.
template <typename Host>
PopulationErrors evaluate_instance_points(
    Host& engine, wire::InstanceId id, const stats::EmpiricalCdf& truth,
    const EvaluationOptions& options = {}) {
  return aggregate_errors(
      engine, options,
      [&](wire::NodeId peer) -> std::optional<stats::ErrorPair> {
        const Adam2Agent* agent = detail::adam2_agent(engine, peer);
        if (agent == nullptr) return std::nullopt;
        const InstanceSlot* state = agent->instance(id);
        if (state == nullptr) return std::nullopt;
        return stats::point_errors(truth, state->points());
      });
}

/// Mean relative error of the peers' self-assessment (§VII-H):
/// avg over peers of |Err(p) - EstErr(p)| / Err(p), where `use_max` selects
/// the Errm (true) or Erra (false) variant.
template <typename Host>
double confidence_estimation_error(Host& engine,
                                   const stats::EmpiricalCdf& truth,
                                   bool use_max,
                                   const EvaluationOptions& options = {}) {
  const stats::DiscreteErrorEvaluator errors_against_truth(truth);
  stats::RunningStat relative;
  for (wire::NodeId id : pick_peers(engine, options.peer_sample)) {
    const auto& node = engine.node(id);
    if (options.born_by && node.birth_round > *options.born_by) continue;
    const Estimate* est = detail::usable_estimate(engine, id);
    if (est == nullptr || !est->self_assessment) continue;
    const stats::ErrorPair actual = errors_against_truth(est->cdf);
    const double true_err = use_max ? actual.max_err : actual.avg_err;
    const double est_err = use_max ? est->self_assessment->max_err
                                   : est->self_assessment->avg_err;
    if (true_err <= 0.0) continue;
    relative.add(std::abs(true_err - est_err) / true_err);
  }
  return relative.mean();
}

}  // namespace adam2::core
