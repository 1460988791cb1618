#include "rng/rng.hpp"

#include <cassert>
#include <cmath>

namespace adam2::rng {

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point slop: fall back to last index.
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> picked;
  if (k >= n) {
    picked.resize(n);
    for (std::size_t i = 0; i < n; ++i) picked[i] = i;
    return picked;
  }
  picked.reserve(k);
  // Classic reservoir sampling; O(n) but branch-light and unbiased.
  for (std::size_t i = 0; i < n; ++i) {
    if (picked.size() < k) {
      picked.push_back(i);
    } else {
      const std::size_t j = below(i + 1);
      if (j < k) picked[j] = i;
    }
  }
  return picked;
}

}  // namespace adam2::rng
