#include "core/point_selection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace adam2::core {
namespace {

using stats::CdfPoint;
using stats::PiecewiseLinearCdf;

/// Knot range of the previous interpolation: [min, max] anchors.
struct Range {
  double lo;
  double hi;
};

Range knot_range(const PiecewiseLinearCdf& prev) {
  assert(!prev.empty());
  return {prev.knots().front().t, prev.knots().back().t};
}

}  // namespace

std::vector<double> sanitize_thresholds(std::vector<double> ts, double lo,
                                        double hi, std::size_t lambda) {
  assert(hi >= lo);
  if (lambda == 0) return {};
  if (hi <= lo) {
    // Degenerate attribute range: all thresholds collapse onto the single
    // value; return lambda copies spread over a unit span so encoding sizes
    // stay constant.
    std::vector<double> flat(lambda);
    for (std::size_t i = 0; i < lambda; ++i) {
      flat[i] = lo + static_cast<double>(i) * 1e-9;
    }
    return flat;
  }

  // Keep thresholds strictly inside (lo, hi): the anchors (min,0) and (max,1)
  // already pin the ends of the curve.
  std::erase_if(ts, [&](double t) {
    return !(t > lo && t < hi) || !std::isfinite(t);
  });
  std::sort(ts.begin(), ts.end());
  const double tolerance = (hi - lo) * 1e-12;
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [&](double a, double b) { return b - a <= tolerance; }),
           ts.end());

  // Too many: keep an evenly spread subset (preserves the heuristic's shape).
  if (ts.size() > lambda) {
    std::vector<double> kept;
    kept.reserve(lambda);
    for (std::size_t i = 0; i < lambda; ++i) {
      const std::size_t idx = i * ts.size() / lambda;
      kept.push_back(ts[idx]);
    }
    ts = std::move(kept);
  }

  // Too few: repeatedly split the widest gap (anchors included).
  while (ts.size() < lambda) {
    double best_gap = -1.0;
    std::size_t best_slot = 0;  // Insert before ts[best_slot].
    double prev_t = lo;
    for (std::size_t i = 0; i <= ts.size(); ++i) {
      const double next_t = i < ts.size() ? ts[i] : hi;
      const double gap = next_t - prev_t;
      if (gap > best_gap) {
        best_gap = gap;
        best_slot = i;
      }
      prev_t = next_t;
    }
    const double left = best_slot == 0 ? lo : ts[best_slot - 1];
    const double right = best_slot == ts.size() ? hi : ts[best_slot];
    ts.insert(ts.begin() + static_cast<std::ptrdiff_t>(best_slot),
              (left + right) / 2.0);
  }
  return ts;
}

std::vector<double> uniform_thresholds(double lo, double hi,
                                       std::size_t lambda) {
  std::vector<double> ts;
  ts.reserve(lambda);
  const double step = (hi - lo) / static_cast<double>(lambda + 1);
  for (std::size_t i = 1; i <= lambda; ++i) {
    ts.push_back(lo + step * static_cast<double>(i));
  }
  return sanitize_thresholds(std::move(ts), lo, hi, lambda);
}

std::vector<double> neighbour_thresholds(
    std::span<const stats::Value> neighbour_values, std::size_t lambda,
    rng::Rng& rng) {
  if (neighbour_values.empty()) return uniform_thresholds(0.0, 1.0, lambda);

  std::vector<stats::Value> distinct(neighbour_values.begin(),
                                     neighbour_values.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  const double lo = static_cast<double>(distinct.front());
  const double hi = static_cast<double>(distinct.back());

  std::vector<double> ts;
  ts.reserve(lambda);
  if (distinct.size() <= lambda) {
    for (stats::Value v : distinct) ts.push_back(static_cast<double>(v));
  } else {
    // Random subset of the observed values (§VII-B).
    for (std::size_t idx : rng.sample_indices(distinct.size(), lambda)) {
      ts.push_back(static_cast<double>(distinct[idx]));
    }
  }
  // The sampled extremes land on the anchors and would be dropped; nudge the
  // range outward a little so they survive as interior points.
  const double margin = std::max((hi - lo) * 0.01, 1.0);
  return sanitize_thresholds(std::move(ts), lo - margin, hi + margin, lambda);
}

std::vector<double> hcut(const PiecewiseLinearCdf& prev, std::size_t lambda) {
  const Range range = knot_range(prev);
  std::vector<double> ts;
  ts.reserve(lambda);
  for (std::size_t i = 1; i <= lambda; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(lambda + 1);
    ts.push_back(prev.inverse(q));
  }
  return sanitize_thresholds(std::move(ts), range.lo, range.hi, lambda);
}

std::vector<double> minmax(const PiecewiseLinearCdf& prev, std::size_t lambda) {
  const Range range = knot_range(prev);
  // H starts as the previous interpolation (anchors included) and is edited
  // in place; Hold only ever loses points, so Hold is always a subset of H.
  std::vector<CdfPoint> h(prev.knots().begin(), prev.knots().end());
  std::vector<CdfPoint> hold = h;

  const auto widest_gap = [](const std::vector<CdfPoint>& pts) {
    std::size_t best = 1;
    double gap = -1.0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double g = std::abs(pts[i].f - pts[i - 1].f);
      if (g > gap) {
        gap = g;
        best = i;
      }
    }
    return std::pair{best, gap};
  };
  // Narrowest cluster of three consecutive points, interior midpoint only.
  const auto narrowest_cluster = [](const std::vector<CdfPoint>& pts) {
    std::size_t best = 0;
    double gap = std::numeric_limits<double>::infinity();
    for (std::size_t m = 1; m + 1 < pts.size(); ++m) {
      const double g = std::abs(pts[m + 1].f - pts[m - 1].f);
      if (g < gap) {
        gap = g;
        best = m;
      }
    }
    return std::pair{best, gap};
  };

  // Each iteration removes one interior point of Hold, so the loop is
  // bounded; guard anyway against pathological floating-point ties.
  for (std::size_t iter = 0; iter < lambda + 2 && hold.size() > 2; ++iter) {
    const auto [n, widest] = widest_gap(h);
    const auto [m, narrowest] = narrowest_cluster(hold);
    if (!(widest > narrowest)) break;

    const CdfPoint removed = hold[m];
    hold.erase(hold.begin() + static_cast<std::ptrdiff_t>(m));
    // The same point still exists in H (Hold is a subset of H); drop it.
    auto in_h = std::find_if(h.begin(), h.end(), [&](const CdfPoint& p) {
      return p.t == removed.t && p.f == removed.f;
    });
    if (in_h != h.end()) h.erase(in_h);

    // Split the widest gap of H at its midpoint. Indices may have shifted
    // after the erase, so re-find the widest pair.
    const auto [n2, gap2] = widest_gap(h);
    (void)n;
    (void)gap2;
    const CdfPoint mid{(h[n2].t + h[n2 - 1].t) / 2.0,
                       (h[n2].f + h[n2 - 1].f) / 2.0};
    h.insert(h.begin() + static_cast<std::ptrdiff_t>(n2), mid);
  }

  std::vector<double> ts;
  ts.reserve(h.size());
  for (const CdfPoint& p : h) ts.push_back(p.t);
  return sanitize_thresholds(std::move(ts), range.lo, range.hi, lambda);
}

std::vector<double> lcut(const PiecewiseLinearCdf& prev, std::size_t lambda) {
  const Range range = knot_range(prev);
  const double scale = std::max(range.hi - range.lo, 1e-300);
  const double total = prev.arc_length(scale);
  if (total <= 0.0) return uniform_thresholds(range.lo, range.hi, lambda);

  const auto knots = prev.knots();
  std::vector<double> ts;
  ts.reserve(lambda);
  const double step = total / static_cast<double>(lambda + 1);
  double next_target = step;
  double walked = 0.0;
  for (std::size_t i = 1; i < knots.size() && ts.size() < lambda; ++i) {
    const double dt = (knots[i].t - knots[i - 1].t) / scale;
    const double df = knots[i].f - knots[i - 1].f;
    // Basic operations only (no libm); dt <= 1 and |df| <= 1 cannot overflow.
    const double seg = std::sqrt(dt * dt + df * df);
    while (seg > 0.0 && walked + seg >= next_target && ts.size() < lambda) {
      const double w = (next_target - walked) / seg;
      ts.push_back(knots[i - 1].t + w * (knots[i].t - knots[i - 1].t));
      next_target += step;
    }
    walked += seg;
  }
  return sanitize_thresholds(std::move(ts), range.lo, range.hi, lambda);
}

std::vector<double> bisection_thresholds(const PiecewiseLinearCdf& prev,
                                         std::size_t count) {
  const Range range = knot_range(prev);
  if (count == 0) return {};

  // Interval = (t_lo, t_hi, vertical gap). Splitting an interval at its
  // midpoint halves the gap (the interpolation is linear inside it).
  struct Interval {
    double lo, hi, gap;
  };
  std::vector<Interval> intervals;
  const auto knots = prev.knots();
  for (std::size_t i = 1; i < knots.size(); ++i) {
    intervals.push_back({knots[i - 1].t, knots[i].t,
                         std::abs(knots[i].f - knots[i - 1].f)});
  }
  std::vector<double> ts;
  ts.reserve(count);
  while (ts.size() < count && !intervals.empty()) {
    auto widest = std::max_element(
        intervals.begin(), intervals.end(),
        [](const Interval& a, const Interval& b) { return a.gap < b.gap; });
    const double mid = (widest->lo + widest->hi) / 2.0;
    ts.push_back(mid);
    const Interval right{mid, widest->hi, widest->gap / 2.0};
    *widest = {widest->lo, mid, widest->gap / 2.0};
    intervals.push_back(right);
  }
  return sanitize_thresholds(std::move(ts), range.lo, range.hi, count);
}

std::vector<double> select_points(const PiecewiseLinearCdf& prev,
                                  std::size_t lambda,
                                  SelectionHeuristic heuristic) {
  switch (heuristic) {
    case SelectionHeuristic::kHCut: return hcut(prev, lambda);
    case SelectionHeuristic::kMinMax: return minmax(prev, lambda);
    case SelectionHeuristic::kLCut: return lcut(prev, lambda);
  }
  assert(false && "unknown heuristic");
  return {};
}

}  // namespace adam2::core
