// Equi-depth synopses for the EquiDepth baseline (baselines/equidepth.hpp):
// weighted sample points, their compression into equal-weight centroids, and
// the CDF those centroids describe.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/cdf.hpp"

namespace adam2::stats {

/// A weighted sample point: `weight` copies of `value` (weights may be
/// fractional after synopsis merging).
struct WeightedValue {
  double value = 0.0;
  double weight = 0.0;

  friend bool operator==(const WeightedValue&, const WeightedValue&) = default;
};

/// Compresses weighted samples to at most `capacity` centroids while
/// preserving total weight: sorts by value and greedily merges adjacent
/// centroids into equal-weight groups (the synopsis compression step of the
/// EquiDepth baseline, ref [3]). Returns centroids sorted by value.
[[nodiscard]] std::vector<WeightedValue> compress_equi_depth(
    std::vector<WeightedValue> samples, std::size_t capacity);

/// Interprets weighted centroids as a distribution and returns its CDF
/// interpolation: knot k holds (value_k, cumulative weight fraction through
/// centroid k, midpoint convention). Precondition: total weight > 0.
[[nodiscard]] PiecewiseLinearCdf centroids_to_cdf(
    std::span<const WeightedValue> centroids);

}  // namespace adam2::stats
