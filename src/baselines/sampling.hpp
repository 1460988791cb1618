// Random-sampling baseline (Hall & Carzaniga, ref [4]).
//
// A node estimates the attribute CDF from `sample_size` uniformly drawn
// attribute values. We model the sampling itself as ideal (a perfect uniform
// sampler is an upper bound on [4]'s quality) and charge the message cost of
// obtaining each sample by a random walk of kWalkHops messages — the
// paper's point is that 1,000-10,000 samples are needed to match Adam2,
// which makes this approach an order of magnitude more expensive (§VII-I).
#pragma once

#include <span>

#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/error_metrics.hpp"

namespace adam2::baselines {

/// Messages spent per sample (random-walk length). The paper cites
/// "several network messages per requested sample".
inline constexpr std::size_t kWalkHops = 10;

struct SamplingConfig {
  std::size_t sample_size = 1000;
};

struct SamplingResult {
  stats::ErrorPair errors;
  std::size_t messages = 0;       ///< Total messages the node generated.
  std::size_t bytes_estimate = 0; ///< Assuming ~48 B per walk message.
};

/// Builds the step-CDF estimator from a drawn sample (knots at the sample's
/// distinct values with their empirical fractions).
[[nodiscard]] stats::PiecewiseLinearCdf sample_cdf(
    std::span<const stats::Value> sample);

/// Draws `config.sample_size` values uniformly (with replacement) from
/// `population`, builds the estimator, and returns its errors against the
/// population's true CDF together with the modelled cost.
[[nodiscard]] SamplingResult estimate_by_sampling(
    std::span<const stats::Value> population, const SamplingConfig& config,
    rng::Rng& rng);

}  // namespace adam2::baselines
