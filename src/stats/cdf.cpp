#include "stats/cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace adam2::stats {

EmpiricalCdf::EmpiricalCdf(std::vector<Value> values) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  total_ = values.size();
  distinct_.reserve(64);
  cumulative_.reserve(64);
  const double inv_n = 1.0 / static_cast<double>(total_);
  for (std::size_t i = 0; i < values.size();) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    distinct_.push_back(values[i]);
    cumulative_.push_back(static_cast<double>(j) * inv_n);
    i = j;
  }
  // Guard against accumulated rounding: the last fraction is exactly 1.
  cumulative_.back() = 1.0;
}

double EmpiricalCdf::operator()(double x) const {
  assert(!distinct_.empty());
  // Largest distinct value <= x; its cumulative fraction is F(x).
  auto it = std::upper_bound(distinct_.begin(), distinct_.end(), x,
                             [](double lhs, Value rhs) {
                               return lhs < static_cast<double>(rhs);
                             });
  if (it == distinct_.begin()) return 0.0;
  return cumulative_[static_cast<std::size_t>(it - distinct_.begin()) - 1];
}

Value EmpiricalCdf::quantile(double q) const {
  assert(!distinct_.empty());
  if (q <= 0.0) return min();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), q);
  if (it == cumulative_.end()) return max();
  return distinct_[static_cast<std::size_t>(it - cumulative_.begin())];
}

PiecewiseLinearCdf::PiecewiseLinearCdf(std::vector<CdfPoint> knots) {
  std::sort(knots.begin(), knots.end(),
            [](const CdfPoint& a, const CdfPoint& b) { return a.t < b.t; });
  knots_.reserve(knots.size());
  for (CdfPoint k : knots) {
    k.f = std::clamp(k.f, 0.0, 1.0);
    if (!knots_.empty() && knots_.back().t == k.t) {
      knots_.back().f = std::max(knots_.back().f, k.f);
    } else {
      knots_.push_back(k);
    }
  }
}

double PiecewiseLinearCdf::operator()(double x) const {
  assert(!knots_.empty());
  if (x <= knots_.front().t) return x < knots_.front().t ? 0.0 : knots_.front().f;
  if (x >= knots_.back().t) return knots_.back().f;
  auto it = std::upper_bound(
      knots_.begin(), knots_.end(), x,
      [](double lhs, const CdfPoint& rhs) { return lhs < rhs.t; });
  const CdfPoint& hi = *it;
  const CdfPoint& lo = *(it - 1);
  const double span = hi.t - lo.t;
  if (span <= 0.0) return hi.f;
  const double w = (x - lo.t) / span;
  return lo.f + w * (hi.f - lo.f);
}

double PiecewiseLinearCdf::inverse(double q) const {
  assert(!knots_.empty());
  if (q <= knots_.front().f) return knots_.front().t;
  if (q >= knots_.back().f) return knots_.back().t;
  auto it = std::lower_bound(
      knots_.begin(), knots_.end(), q,
      [](const CdfPoint& lhs, double rhs) { return lhs.f < rhs; });
  const CdfPoint& hi = *it;
  const CdfPoint& lo = *(it - 1);
  const double rise = hi.f - lo.f;
  if (rise <= 0.0) return hi.t;
  const double w = (q - lo.f) / rise;
  return lo.t + w * (hi.t - lo.t);
}

bool PiecewiseLinearCdf::is_monotone() const {
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (knots_[i].f < knots_[i - 1].f) return false;
  }
  return true;
}

PiecewiseLinearCdf PiecewiseLinearCdf::make_monotone() const {
  PiecewiseLinearCdf out = *this;
  double running = 0.0;
  for (CdfPoint& k : out.knots_) {
    running = std::max(running, k.f);
    k.f = running;
  }
  return out;
}

double PiecewiseLinearCdf::arc_length(double t_scale) const {
  assert(t_scale > 0.0);
  double total = 0.0;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    const double dt = (knots_[i].t - knots_[i - 1].t) / t_scale;
    const double df = knots_[i].f - knots_[i - 1].f;
    total += std::sqrt(dt * dt + df * df);  // Basic operations, no libm.
  }
  return total;
}

PiecewiseLinearCdf interpolate_with_extremes(std::span<const CdfPoint> points,
                                             double min_value,
                                             double max_value) {
  std::vector<CdfPoint> knots;
  knots.reserve(points.size() + 2);
  knots.push_back({min_value, 0.0});
  for (const CdfPoint& p : points) {
    if (p.t > min_value && p.t < max_value) knots.push_back(p);
  }
  knots.push_back({max_value, 1.0});
  return PiecewiseLinearCdf{std::move(knots)};
}

}  // namespace adam2::stats
