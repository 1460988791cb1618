#include "core/instance.hpp"

#include <algorithm>
#include <cassert>

#include "core/point_ops.hpp"

namespace adam2::core {
namespace {

std::vector<stats::CdfPoint> contribute(const std::vector<double>& thresholds,
                                        const ContributionFn& contribution) {
  std::vector<stats::CdfPoint> points;
  points.reserve(thresholds.size());
  for (double t : thresholds) points.push_back({t, contribution(t)});
  return points;
}

std::vector<stats::CdfPoint> contribute_at(
    const std::vector<stats::CdfPoint>& received,
    const ContributionFn& contribution) {
  std::vector<stats::CdfPoint> points;
  points.reserve(received.size());
  for (const stats::CdfPoint& p : received) {
    points.push_back({p.t, contribution(p.t)});
  }
  return points;
}

using point_ops::average_points;
using point_ops::same_thresholds;

}  // namespace

bool InstanceState::mergeable_with(const wire::InstancePayload& other) const {
  return other.id == id && same_thresholds(points, other.points) &&
         same_thresholds(verification, other.verification);
}

bool InstanceState::mergeable_with(
    const wire::InstancePayloadView& other) const {
  return other.id == id && same_thresholds(points, other.points) &&
         same_thresholds(verification, other.verification);
}

InstanceState InstanceState::start(
    wire::InstanceId id, wire::Round round, std::uint16_t ttl,
    const std::vector<double>& thresholds,
    const std::vector<double>& verification_thresholds,
    const ContributionFn& contribution, double local_min, double local_max) {
  InstanceState state;
  state.id = id;
  state.start_round = round;
  state.ttl = ttl;
  state.weight = 1.0;  // Unique initiator: the averaged mean becomes 1/N.
  state.min_value = local_min;
  state.max_value = local_max;
  state.points = contribute(thresholds, contribution);
  state.verification = contribute(verification_thresholds, contribution);
  return state;
}

InstanceState InstanceState::join(const wire::InstancePayload& payload,
                                  const ContributionFn& contribution,
                                  double local_min, double local_max) {
  InstanceState state;
  state.id = payload.id;
  state.start_round = payload.start_round;
  state.ttl = payload.ttl;
  state.weight = 0.0;
  state.min_value = local_min;
  state.max_value = local_max;
  state.points = contribute_at(payload.points, contribution);
  state.verification = contribute_at(payload.verification, contribution);
  return state;
}

void InstanceState::average_with(const wire::InstancePayload& other) {
  assert(other.id == id);
  average_points(points, other.points);
  average_points(verification, other.verification);
  weight = (weight + other.weight) / 2.0;
  min_value = std::min(min_value, other.min_value);
  max_value = std::max(max_value, other.max_value);
}

void InstanceState::average_with(const wire::InstancePayloadView& other) {
  assert(other.id == id);
  average_points(points, other.points);
  average_points(verification, other.verification);
  weight = (weight + other.weight) / 2.0;
  min_value = std::min(min_value, other.min_value);
  max_value = std::max(max_value, other.max_value);
}

}  // namespace adam2::core
