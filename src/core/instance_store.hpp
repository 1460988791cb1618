// A node's live aggregation instances: one vector of slots, live ones first.
//
// A node starts an instance with probability 1/(Np*R) per round and keeps
// it for its TTL (§IV), so it holds about TTL/R instances at once — a
// handful. The store is therefore one std::vector<InstanceSlot> whose first
// size() slots are the live instances in join/start order:
//
//  * find() scans the live slots;
//  * start(), join() and restore() take the first retired slot (the one
//    just past the live ones), or append a new slot;
//  * erase() rotates the erased slot just past the live ones. The other
//    slots keep their order, and the retired slot keeps its series'
//    capacity for the next instance;
//  * iteration walks the live slots. Every traversal — TTL pass, wire
//    emission, the unmentioned-instances reply pass — sees join/start
//    order, so emitted payload order is a function of protocol history.
//
// Steady-state instance lifecycle (start / join / expire at a stable
// lambda) therefore performs zero heap allocations once all high-water
// marks have been seen (bench/micro_core pins this), and the store's heap
// follows the peak number of live instances, not the lifecycles seen.
//
// Reference validity (DESIGN.md §7.5): InstanceSlot& / InstanceSlot* and
// iterators are invalidated by any start/join/restore/erase/clear — they
// may only be held within one handling pass that does not mutate the set
// of instances. The CdfPoint storage behind points()/verification() spans
// moves with its slot and so is stable for the lifetime of the owning
// instance, but is reused once the slot retires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "wire/messages.hpp"

namespace adam2::core {

/// One instance: the wire header inline and its own point series. Field
/// semantics are identical to InstanceState / wire::InstancePayload.
class InstanceSlot {
 public:
  wire::InstanceId id;
  std::uint32_t start_round = 0;
  std::uint16_t ttl = 0;
  std::uint8_t flags = 0;
  double weight = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  /// Scratch mark used by Adam2Agent::handle_request (see InstanceState).
  std::uint64_t touched_epoch = 0;

  /// H: interpolation points, in the initiator's threshold order.
  [[nodiscard]] std::span<stats::CdfPoint> points() { return points_; }
  [[nodiscard]] std::span<const stats::CdfPoint> points() const {
    return points_;
  }
  /// V: verification points.
  [[nodiscard]] std::span<stats::CdfPoint> verification() {
    return verification_;
  }
  [[nodiscard]] std::span<const stats::CdfPoint> verification() const {
    return verification_;
  }

  /// Wire-encoding view of this slot (spans alias the slot's series).
  [[nodiscard]] wire::InstancePayloadRef ref() const {
    return {id,        start_round, ttl,      flags,         weight,
            min_value, max_value,   points(), verification()};
  }

  /// The symmetric merge of §IV, straight from the received bytes: every f
  /// of H, then of V, becomes (f + f') / 2, then the weight likewise, and
  /// the extremes take min/max. The same arithmetic as
  /// InstanceState::average_with. Precondition: admissible(other, ttl,
  /// this) — same instance, same counts, equal thresholds.
  void merge(const wire::InstancePayloadView& other);

 private:
  friend class InstanceStore;

  std::vector<stats::CdfPoint> points_;
  std::vector<stats::CdfPoint> verification_;
};

/// The exchange's semantic admission gate (DESIGN.md §8.3): one walk over a
/// parsed payload, before any write, decides whether it may join (`held`
/// null) or merge into *held. It refuses what framing cannot catch: a ttl
/// above `max_ttl` (a stuck session), a weight outside [0, 1], non-finite
/// or crossed extremes, a NaN threshold, an f that is NaN, infinite or
/// negative, and an f above 1 (an average of 0/1 indicators) unless an H
/// threshold is ±inf (the multi-value sentinel, §IV: there f counts
/// values). For a held slot it also refuses another id, other H or V
/// counts, or a threshold that differs by != (so -0.0 matches 0.0): such a
/// merge would read or write out of bounds.
[[nodiscard]] bool admissible(const wire::InstancePayloadView& payload,
                              std::uint16_t max_ttl, const InstanceSlot* held);

class InstanceStore {
 public:
  using iterator = std::vector<InstanceSlot>::iterator;
  using const_iterator = std::vector<InstanceSlot>::const_iterator;

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// The slot for `id`, or nullptr. Invalidated by any start/join/erase.
  [[nodiscard]] InstanceSlot* find(wire::InstanceId id);
  [[nodiscard]] const InstanceSlot* find(wire::InstanceId id) const;

  /// Initiator-side creation (InstanceState::start semantics): weight 1,
  /// own contributions at the given thresholds, own extremes. `id` must not
  /// be present. Appended to the iteration order.
  InstanceSlot& start(wire::InstanceId id, std::uint32_t start_round,
                      std::uint16_t ttl, std::span<const double> thresholds,
                      std::span<const double> verification,
                      const ContributionFn& contribution, double local_min,
                      double local_max);

  /// Joiner-side creation from a received payload (InstanceState::join
  /// semantics): weight 0, own contributions at the payload's thresholds,
  /// own extremes. `payload.id` must not be present.
  InstanceSlot& join(const wire::InstancePayloadView& payload,
                     const ContributionFn& contribution, double local_min,
                     double local_max);

  /// Removes `id`, which must be present. O(size): the later live slots
  /// move up one place.
  void erase(wire::InstanceId id);

  /// Checkpoint restore (host::snapshot, DESIGN.md §12): re-creates an
  /// instance verbatim — header fields, scratch epoch and both point series
  /// are installed exactly as given, with no contribution evaluation.
  /// Appended to the iteration order; `id` must not be present. Restoring
  /// into a non-empty store is supported (warm crash-restart hands a
  /// checkpoint to a node that kept gossiping) and differential-fuzzed.
  InstanceSlot& restore(wire::InstanceId id, std::uint32_t start_round,
                        std::uint16_t ttl, std::uint8_t flags, double weight,
                        double min_value, double max_value,
                        std::uint64_t touched_epoch,
                        std::span<const stats::CdfPoint> points,
                        std::span<const stats::CdfPoint> verification);

  /// Retires every instance; the slots keep their capacity.
  void clear() { live_ = 0; }

  /// Join/start-order iteration over the live slots.
  [[nodiscard]] iterator begin() { return slots_.begin(); }
  [[nodiscard]] iterator end() { return begin() + live_end(); }
  [[nodiscard]] const_iterator begin() const { return slots_.begin(); }
  [[nodiscard]] const_iterator end() const { return begin() + live_end(); }

 private:
  [[nodiscard]] std::ptrdiff_t live_end() const {
    return static_cast<std::ptrdiff_t>(live_);
  }
  /// The first retired slot (appended if there is none), made live for
  /// `id` with flags and touched_epoch zeroed; the caller sets the rest.
  InstanceSlot& claim(wire::InstanceId id);

  /// Live slots first, in join/start order, then the retired ones.
  std::vector<InstanceSlot> slots_;
  std::size_t live_ = 0;
};

}  // namespace adam2::core
