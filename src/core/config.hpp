// Configuration of the Adam2 protocol (§IV-§VI).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace adam2::core {

/// Interpolation-point refinement heuristic used when a node that already
/// holds a CDF estimate starts a new aggregation instance (§V).
enum class SelectionHeuristic : std::uint8_t {
  kHCut,    ///< Equal-quantile cut: minimises Errm on smooth CDFs (§V-A).
  kMinMax,  ///< Step-seeking split/merge (Figure 3): best Errm on steps.
  kLCut,    ///< Equal Euclidean arc-length cut: minimises Erra (§V-B).
};

/// How the very first instance (no prior estimate) places its points (§VII-B).
enum class BootstrapPoints : std::uint8_t {
  kUniform,         ///< Evenly spaced between the locally known extremes.
  kNeighbourBased,  ///< Random subset of neighbours' attribute values.
};

/// Placement of the verification points V used for self-assessment (§VI).
enum class VerificationMode : std::uint8_t {
  kUniform,    ///< Uniform thresholds: estimates Erra.
  kBisection,  ///< Iterative vertical-gap bisection: estimates Errm.
};

/// Join rule for peers that first hear of an instance. See DESIGN.md §1:
/// the literal Figure-1 rule is not mass conserving; the conserving variant
/// is the default and the literal one is kept for the ablation bench.
enum class JoinPolicy : std::uint8_t {
  kMassConserving,
  kPaperLiteral,
};

/// Self-tuning (§VI): after each instance whose self-assessment is available,
/// the number of interpolation points is adapted towards the target accuracy.
struct AdaptiveTuning {
  double target_avg_error = 0.001;  ///< Desired EstErra.
  std::size_t min_lambda = 10;
  std::size_t max_lambda = 200;
  double grow_factor = 1.5;    ///< Applied when above target.
  double shrink_factor = 0.8;  ///< Applied when far below target.
  double slack = 0.25;         ///< Shrink only when est < slack * target.
};

struct Adam2Config {
  /// Number of interpolation points lambda (paper default: 50).
  std::size_t lambda = 50;

  /// Rounds an instance lives before peers finalise it (paper: 25 rounds
  /// suffice for the averaging to converge, §VII-A).
  std::uint16_t instance_ttl = 25;

  SelectionHeuristic heuristic = SelectionHeuristic::kMinMax;
  BootstrapPoints bootstrap = BootstrapPoints::kNeighbourBased;
  JoinPolicy join_policy = JoinPolicy::kMassConserving;

  /// Number of verification points (0 disables self-assessment).
  std::size_t verification_points = 0;
  VerificationMode verification_mode = VerificationMode::kUniform;

  /// R: a node starts a new instance with probability 1 / (Np * R) per round
  /// (§IV). 0 disables probabilistic starts (scripted experiments drive
  /// instances explicitly).
  double restart_every_r = 0.0;

  /// Np used before the first completed instance provides an estimate.
  double initial_n_estimate = 0.0;

  /// Combine the interpolation points of the last k instances into the
  /// working estimate (§VII-D; 1 = use only the newest instance). Only
  /// useful while the attribute CDF is static or slowly changing.
  std::size_t combine_last_instances = 1;

  /// Optional lambda self-tuning from the instance self-assessment.
  std::optional<AdaptiveTuning> adaptive;
};

}  // namespace adam2::core
