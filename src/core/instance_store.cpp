#include "core/instance_store.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace adam2::core {

// ---------------------------------------------------------------- InstanceSlot

void InstanceSlot::merge(const wire::InstancePayloadView& other) {
  assert(other.id == id && other.points.size() == points_count_ &&
         other.verification.size() == verification_count_);
  const auto average = [](stats::CdfPoint* mine, wire::PointsView theirs) {
    for (std::size_t i = 0; i < theirs.size(); ++i) {
      mine[i].f = (mine[i].f + theirs[i].f) / 2.0;
    }
  };
  average(points_.data, other.points);
  average(verification_.data, other.verification);
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

InstanceStore::InstanceStore()
    : index_(kInitialBuckets, kNpos), mask_(kInitialBuckets - 1) {}

InstanceSlot* InstanceStore::find(wire::InstanceId id) {
  std::size_t b = bucket_of(id);
  while (index_[b] != kNpos) {
    InstanceSlot& slot = slots_[index_[b]];
    if (slot.id == id) return &slot;
    b = (b + 1) & mask_;
  }
  return nullptr;
}

const InstanceSlot* InstanceStore::find(wire::InstanceId id) const {
  return const_cast<InstanceStore*>(this)->find(id);
}

void InstanceStore::insert_index(std::uint32_t row) {
  std::size_t b = bucket_of(slots_[row].id);
  while (index_[b] != kNpos) b = (b + 1) & mask_;
  index_[b] = row;
}

void InstanceStore::rehash(std::size_t buckets) {
  index_.assign(buckets, kNpos);
  mask_ = buckets - 1;
  for (std::uint32_t row : order_) insert_index(row);
}

InstanceSlot& InstanceStore::emplace_row(wire::InstanceId id) {
  assert(find(id) == nullptr);
  // Grow at 70% occupancy, before the new element lands.
  if ((order_.size() + 1) * 10 >= index_.size() * 7) rehash(index_.size() * 2);
  std::uint32_t row;
  if (!free_rows_.empty()) {
    row = free_rows_.back();
    free_rows_.pop_back();
    slots_[row] = InstanceSlot{};
  } else {
    row = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[row].id = id;
  insert_index(row);
  order_.push_back(row);
  return slots_[row];
}

InstanceSlot& InstanceStore::start(wire::InstanceId id,
                                   std::uint32_t start_round, std::uint16_t ttl,
                                   std::span<const double> thresholds,
                                   std::span<const double> verification,
                                   const ContributionFn& contribution,
                                   double local_min, double local_max) {
  InstanceSlot& slot = emplace_row(id);
  slot.start_round = start_round;
  slot.ttl = ttl;
  slot.weight = 1.0;  // Unique initiator: the averaged mean becomes 1/N.
  slot.min_value = local_min;
  slot.max_value = local_max;
  slot.points_ = arena_.allocate(thresholds.size());
  slot.points_count_ = static_cast<std::uint32_t>(thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    slot.points_.data[i] = {thresholds[i], contribution(thresholds[i])};
  }
  slot.verification_ = arena_.allocate(verification.size());
  slot.verification_count_ = static_cast<std::uint32_t>(verification.size());
  for (std::size_t i = 0; i < verification.size(); ++i) {
    slot.verification_.data[i] = {verification[i],
                                  contribution(verification[i])};
  }
  return slot;
}

InstanceSlot& InstanceStore::join(const wire::InstancePayloadView& payload,
                                  const ContributionFn& contribution,
                                  double local_min, double local_max) {
  InstanceSlot& slot = emplace_row(payload.id);
  slot.start_round = payload.start_round;
  slot.ttl = payload.ttl;
  slot.weight = 0.0;
  slot.min_value = local_min;
  slot.max_value = local_max;
  slot.points_ = arena_.allocate(payload.points.size());
  slot.points_count_ = static_cast<std::uint32_t>(payload.points.size());
  std::size_t i = 0;
  for (const stats::CdfPoint p : payload.points) {
    slot.points_.data[i++] = {p.t, contribution(p.t)};
  }
  slot.verification_ = arena_.allocate(payload.verification.size());
  slot.verification_count_ =
      static_cast<std::uint32_t>(payload.verification.size());
  i = 0;
  for (const stats::CdfPoint p : payload.verification) {
    slot.verification_.data[i++] = {p.t, contribution(p.t)};
  }
  return slot;
}

void InstanceStore::erase_bucket(std::size_t hole) {
  index_[hole] = kNpos;
  std::size_t next = hole;
  while (true) {
    next = (next + 1) & mask_;
    if (index_[next] == kNpos) return;
    const std::size_t home = bucket_of(slots_[index_[next]].id);
    // `next`'s element may fill the hole only if the hole lies on its probe
    // path, i.e. its displacement from home reaches at least back to the
    // hole (cyclic distances).
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      index_[hole] = index_[next];
      index_[next] = kNpos;
      hole = next;
    }
  }
}

InstanceSlot& InstanceStore::restore(wire::InstanceId id,
                                     std::uint32_t start_round,
                                     std::uint16_t ttl, std::uint8_t flags,
                                     double weight, double min_value,
                                     double max_value,
                                     std::uint64_t touched_epoch,
                                     std::span<const stats::CdfPoint> points,
                                     std::span<const stats::CdfPoint> verification) {
  InstanceSlot& slot = emplace_row(id);
  slot.start_round = start_round;
  slot.ttl = ttl;
  slot.flags = flags;
  slot.weight = weight;
  slot.min_value = min_value;
  slot.max_value = max_value;
  slot.touched_epoch = touched_epoch;
  slot.points_ = arena_.allocate(points.size());
  slot.points_count_ = static_cast<std::uint32_t>(points.size());
  std::copy(points.begin(), points.end(), slot.points_.data);
  slot.verification_ = arena_.allocate(verification.size());
  slot.verification_count_ = static_cast<std::uint32_t>(verification.size());
  std::copy(verification.begin(), verification.end(),
            slot.verification_.data);
  return slot;
}

void InstanceStore::clear() {
  for (std::uint32_t row : order_) {
    InstanceSlot& slot = slots_[row];
    arena_.release(slot.points_.data, slot.points_.capacity);
    arena_.release(slot.verification_.data, slot.verification_.capacity);
    slot = InstanceSlot{};
    free_rows_.push_back(row);
  }
  order_.clear();
  std::fill(index_.begin(), index_.end(), kNpos);
}

void InstanceStore::erase(wire::InstanceId id) {
  std::size_t b = bucket_of(id);
  while (true) {
    assert(index_[b] != kNpos);  // Precondition: id is present.
    if (slots_[index_[b]].id == id) break;
    b = (b + 1) & mask_;
  }
  const std::uint32_t row = index_[b];
  erase_bucket(b);
  InstanceSlot& slot = slots_[row];
  arena_.release(slot.points_.data, slot.points_.capacity);
  arena_.release(slot.verification_.data, slot.verification_.capacity);
  slot = InstanceSlot{};
  free_rows_.push_back(row);
  std::erase(order_, row);
}

}  // namespace adam2::core
