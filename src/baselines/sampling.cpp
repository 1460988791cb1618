#include "baselines/sampling.hpp"

#include <cassert>
#include <vector>

namespace adam2::baselines {

stats::PiecewiseLinearCdf sample_cdf(std::span<const stats::Value> sample) {
  assert(!sample.empty());
  const stats::EmpiricalCdf empirical{
      std::vector<stats::Value>(sample.begin(), sample.end())};
  const auto distinct = empirical.distinct_values();
  const auto fractions = empirical.cumulative_fractions();
  std::vector<stats::CdfPoint> knots;
  knots.reserve(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    knots.push_back({static_cast<double>(distinct[i]), fractions[i]});
  }
  return stats::PiecewiseLinearCdf{std::move(knots)};
}

SamplingResult estimate_by_sampling(std::span<const stats::Value> population,
                                    const SamplingConfig& config,
                                    rng::Rng& rng) {
  assert(!population.empty());
  assert(config.sample_size >= 1);
  std::vector<stats::Value> sample;
  sample.reserve(config.sample_size);
  for (std::size_t i = 0; i < config.sample_size; ++i) {
    sample.push_back(population[rng.below(population.size())]);
  }
  const stats::EmpiricalCdf truth{
      std::vector<stats::Value>(population.begin(), population.end())};

  SamplingResult result;
  result.errors = stats::discrete_errors(truth, sample_cdf(sample));
  result.messages = config.sample_size * kWalkHops;
  result.bytes_estimate = result.messages * 48;
  return result;
}

}  // namespace adam2::baselines
