#include "core/instance_store.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

namespace adam2::core {

// ---------------------------------------------------------------- InstanceSlot

void InstanceSlot::merge(const wire::InstancePayloadView& other) {
  assert(other.id == id && other.points.size() == points_.size() &&
         other.verification.size() == verification_.size());
  const auto average = [](stats::CdfPoint* mine, wire::PointsView theirs) {
    for (std::size_t i = 0; i < theirs.size(); ++i) {
      mine[i].f = (mine[i].f + theirs[i].f) / 2.0;
    }
  };
  average(points_.data(), other.points);
  average(verification_.data(), other.verification);
  weight = (weight + other.weight) / 2.0;
  min_value = std::min(min_value, other.min_value);
  max_value = std::max(max_value, other.max_value);
}

namespace {

/// One received series against admissible()'s point rules and, when `held`
/// is non-null, against the held thresholds (same count checked by the
/// caller). Records whether a threshold was ±inf and an f exceeded 1.
bool admissible_series(wire::PointsView theirs, const stats::CdfPoint* held,
                       bool& inf_threshold, bool& above_one) {
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    const stats::CdfPoint p = theirs[i];
    if (std::isnan(p.t) || !std::isfinite(p.f) || p.f < 0.0) return false;
    if (held != nullptr && held[i].t != p.t) return false;
    inf_threshold = inf_threshold || std::isinf(p.t);
    above_one = above_one || p.f > 1.0;
  }
  return true;
}

}  // namespace

bool admissible(const wire::InstancePayloadView& payload,
                std::uint16_t max_ttl, const InstanceSlot* held) {
  if (payload.ttl > max_ttl || !std::isfinite(payload.weight) ||
      payload.weight < 0.0 || payload.weight > 1.0 ||
      !std::isfinite(payload.min_value) || !std::isfinite(payload.max_value) ||
      payload.min_value > payload.max_value) {
    return false;
  }
  if (held != nullptr &&
      (held->id != payload.id ||
       held->points().size() != payload.points.size() ||
       held->verification().size() != payload.verification.size())) {
    return false;
  }
  bool multi_value = false;  // Only an H threshold can be the sentinel.
  bool verification_inf = false;
  bool above_one = false;
  return admissible_series(payload.points,
                           held != nullptr ? held->points().data() : nullptr,
                           multi_value, above_one) &&
         admissible_series(
             payload.verification,
             held != nullptr ? held->verification().data() : nullptr,
             verification_inf, above_one) &&
         (multi_value || !above_one);
}

// --------------------------------------------------------------- InstanceStore

// Growing the slot vector and erase()'s rotate move slots; a throwing move
// would make the vector copy them, allocating both series.
static_assert(std::is_nothrow_move_constructible_v<InstanceSlot> &&
              std::is_nothrow_move_assignable_v<InstanceSlot>);

InstanceSlot* InstanceStore::find(wire::InstanceId id) {
  const auto slot = std::find_if(
      begin(), end(), [id](const InstanceSlot& s) { return s.id == id; });
  return slot == end() ? nullptr : &*slot;
}

const InstanceSlot* InstanceStore::find(wire::InstanceId id) const {
  return const_cast<InstanceStore*>(this)->find(id);
}

InstanceSlot& InstanceStore::claim(wire::InstanceId id) {
  assert(find(id) == nullptr);
  if (live_ == slots_.size()) slots_.emplace_back();
  InstanceSlot& slot = slots_[live_++];
  slot.id = id;
  slot.flags = 0;
  slot.touched_epoch = 0;
  return slot;
}

// The series below are sized with resize(), which keeps a retired slot's
// capacity: a slot reused at the same lambda allocates nothing.

InstanceSlot& InstanceStore::start(wire::InstanceId id,
                                   std::uint32_t start_round, std::uint16_t ttl,
                                   std::span<const double> thresholds,
                                   std::span<const double> verification,
                                   const ContributionFn& contribution,
                                   double local_min, double local_max) {
  InstanceSlot& slot = claim(id);
  slot.start_round = start_round;
  slot.ttl = ttl;
  slot.weight = 1.0;  // Unique initiator: the averaged mean becomes 1/N.
  slot.min_value = local_min;
  slot.max_value = local_max;
  slot.points_.resize(thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    slot.points_[i] = {thresholds[i], contribution(thresholds[i])};
  }
  slot.verification_.resize(verification.size());
  for (std::size_t i = 0; i < verification.size(); ++i) {
    slot.verification_[i] = {verification[i], contribution(verification[i])};
  }
  return slot;
}

InstanceSlot& InstanceStore::join(const wire::InstancePayloadView& payload,
                                  const ContributionFn& contribution,
                                  double local_min, double local_max) {
  InstanceSlot& slot = claim(payload.id);
  slot.start_round = payload.start_round;
  slot.ttl = payload.ttl;
  slot.weight = 0.0;
  slot.min_value = local_min;
  slot.max_value = local_max;
  slot.points_.resize(payload.points.size());
  std::size_t i = 0;
  for (const stats::CdfPoint p : payload.points) {
    slot.points_[i++] = {p.t, contribution(p.t)};
  }
  slot.verification_.resize(payload.verification.size());
  i = 0;
  for (const stats::CdfPoint p : payload.verification) {
    slot.verification_[i++] = {p.t, contribution(p.t)};
  }
  return slot;
}

InstanceSlot& InstanceStore::restore(wire::InstanceId id,
                                     std::uint32_t start_round,
                                     std::uint16_t ttl, std::uint8_t flags,
                                     double weight, double min_value,
                                     double max_value,
                                     std::uint64_t touched_epoch,
                                     std::span<const stats::CdfPoint> points,
                                     std::span<const stats::CdfPoint> verification) {
  InstanceSlot& slot = claim(id);
  slot.start_round = start_round;
  slot.ttl = ttl;
  slot.flags = flags;
  slot.weight = weight;
  slot.min_value = min_value;
  slot.max_value = max_value;
  slot.touched_epoch = touched_epoch;
  slot.points_.assign(points.begin(), points.end());
  slot.verification_.assign(verification.begin(), verification.end());
  return slot;
}

void InstanceStore::erase(wire::InstanceId id) {
  const InstanceSlot* slot = find(id);
  assert(slot != nullptr);  // Precondition: id is present.
  const iterator erased = begin() + (slot - slots_.data());
  std::rotate(erased, erased + 1, end());
  --live_;
}

}  // namespace adam2::core
