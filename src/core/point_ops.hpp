// Element-wise operations on CdfPoint sequences for the owning
// InstanceState (cold paths, tests, and the reference model that the
// arena-backed InstanceSlot's admissible()/merge are fuzzed against).
//
// `Range` is anything yielding stats::CdfPoint by value on iteration — an
// owned vector, a std::span, or the zero-copy wire::PointsView straight off
// a received buffer.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>

#include "stats/cdf.hpp"

namespace adam2::core::point_ops {

/// Same element count and bitwise-identical thresholds (the
/// `mergeable_with` precondition: averaging misaligned sequences would be
/// meaningless and, with mismatched counts, out of bounds).
template <typename Range>
[[nodiscard]] bool same_thresholds(std::span<const stats::CdfPoint> mine,
                                   const Range& theirs) {
  if (mine.size() != theirs.size()) return false;
  std::size_t i = 0;
  for (const stats::CdfPoint p : theirs) {
    if (mine[i++].t != p.t) return false;
  }
  return true;
}

/// The symmetric push-pull step of §IV: f_i <- (f_i + f'_i) / 2 at every
/// threshold. Precondition: same_thresholds(mine, theirs).
template <typename Range>
void average_points(std::span<stats::CdfPoint> mine, const Range& theirs) {
  assert(mine.size() == theirs.size());
  std::size_t i = 0;
  for (const stats::CdfPoint p : theirs) {
    assert(mine[i].t == p.t);
    mine[i].f = (mine[i].f + p.f) / 2.0;
    ++i;
  }
}

}  // namespace adam2::core::point_ops
