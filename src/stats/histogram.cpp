#include "stats/histogram.hpp"

#include <algorithm>
#include <cassert>

namespace adam2::stats {

std::vector<WeightedValue> compress_equi_depth(
    std::vector<WeightedValue> samples, std::size_t capacity) {
  assert(capacity >= 1);
  std::sort(samples.begin(), samples.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  if (samples.size() <= capacity) return samples;

  double total = 0.0;
  for (const WeightedValue& s : samples) total += s.weight;
  const double per_bin = total / static_cast<double>(capacity);

  std::vector<WeightedValue> out;
  out.reserve(capacity);
  double bin_weight = 0.0;
  double bin_moment = 0.0;  // weight-weighted sum of values
  for (const WeightedValue& s : samples) {
    double remaining = s.weight;
    double value = s.value;
    // A heavy sample can span several bins; split its weight across them.
    while (remaining > 0.0) {
      const double room = per_bin - bin_weight;
      const double take =
          (out.size() + 1 < capacity) ? std::min(remaining, room) : remaining;
      bin_weight += take;
      bin_moment += take * value;
      remaining -= take;
      if (out.size() + 1 < capacity && bin_weight >= per_bin * (1.0 - 1e-12)) {
        out.push_back({bin_moment / bin_weight, bin_weight});
        bin_weight = 0.0;
        bin_moment = 0.0;
      }
    }
  }
  if (bin_weight > 0.0) out.push_back({bin_moment / bin_weight, bin_weight});
  return out;
}

PiecewiseLinearCdf centroids_to_cdf(std::span<const WeightedValue> centroids) {
  assert(!centroids.empty());
  double total = 0.0;
  for (const WeightedValue& c : centroids) total += c.weight;
  assert(total > 0.0);

  std::vector<CdfPoint> knots;
  knots.reserve(centroids.size());
  double cum = 0.0;
  for (const WeightedValue& c : centroids) {
    // Midpoint convention: a centroid of weight w sits at the middle of the
    // probability mass it represents.
    const double f = (cum + c.weight / 2.0) / total;
    knots.push_back({c.value, f});
    cum += c.weight;
  }
  return PiecewiseLinearCdf{std::move(knots)};
}

}  // namespace adam2::stats
