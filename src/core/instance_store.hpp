// Arena-backed container for a node's live aggregation instances.
//
// Replaces the map-of-vectors layout (a node-based hash map from InstanceId
// to InstanceState plus a separate insertion-order vector) that made the
// per-round merge loop chase pointers through three allocation tiers per
// instance. The store keeps:
//
//  * dense slot rows (`slots_`): one InstanceSlot per live instance — the
//    full fixed header inline plus descriptors of its H/V point blocks;
//    freed rows are recycled through a freelist;
//  * a flat open-addressing index (`index_`): power-of-two bucket array of
//    slot row numbers, linear probing, backward-shift deletion (no
//    tombstones), keyed by InstanceId;
//  * the iteration order (`order_`): slot row numbers in join/start order.
//    Every traversal — TTL pass, wire emission, the unmentioned-instances
//    reply pass — walks this, never the index: emitted payload order is a
//    function of protocol history, not of any hash layout (adam2_lint rule
//    `unordered-iter`);
//  * a stats::PointArena holding every instance's H and V series in slab
//    pages, recycled on expiry. An empty store holds no page: the arena
//    takes its first one when the first instance starts or joins.
//
// Steady-state instance lifecycle (start / join / expire at a stable
// lambda) therefore performs zero heap allocations once all high-water
// marks have been seen (bench/micro_core pins this).
//
// Reference validity (DESIGN.md §7.5): InstanceSlot& / InstanceSlot* and
// iterators are invalidated by any start/join/erase — they may only be
// held within one handling pass that does not mutate the set of
// instances. The CdfPoint storage behind points()/verification() spans is
// stable for the lifetime of the owning instance (arena blocks never
// move), but is recycled at erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/instance.hpp"
#include "stats/point_arena.hpp"
#include "wire/messages.hpp"

namespace adam2::core {

/// One live instance: the wire header inline, the point series in the
/// store's arena. Field semantics are identical to InstanceState /
/// wire::InstancePayload — this is the same state in a flat layout.
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
  [[nodiscard]] std::span<stats::CdfPoint> points() {
    return {points_.data, points_count_};
  }
  [[nodiscard]] std::span<const stats::CdfPoint> points() const {
    return {points_.data, points_count_};
  }
  /// V: verification points.
  [[nodiscard]] std::span<stats::CdfPoint> verification() {
    return {verification_.data, verification_count_};
  }
  [[nodiscard]] std::span<const stats::CdfPoint> verification() const {
    return {verification_.data, verification_count_};
  }

  /// Wire-encoding view of this slot (spans alias the arena storage).
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

  stats::PointArena::Block points_;
  stats::PointArena::Block verification_;
  std::uint32_t points_count_ = 0;
  std::uint32_t verification_count_ = 0;
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
  InstanceStore();
  // The arena is not copyable: slots hold raw pointers into its pages.
  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }

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

  /// Removes `id` (which must be present), recycling its slot row and point
  /// blocks. O(size) for the order-vector erase — identical to the old
  /// std::erase(active_order_, id).
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

  /// Removes every instance, recycling all slot rows and point blocks.
  void clear();

  // Insertion-order iteration (join/start order), yielding InstanceSlot&.
  template <bool Const>
  class basic_iterator {
   public:
    using StoreT = std::conditional_t<Const, const InstanceStore, InstanceStore>;
    using SlotT = std::conditional_t<Const, const InstanceSlot, InstanceSlot>;
    using value_type = InstanceSlot;
    using difference_type = std::ptrdiff_t;

    basic_iterator() = default;
    basic_iterator(StoreT* store, std::size_t pos) : store_(store), pos_(pos) {}

    [[nodiscard]] SlotT& operator*() const {
      return store_->slots_[store_->order_[pos_]];
    }
    [[nodiscard]] SlotT* operator->() const { return &**this; }
    basic_iterator& operator++() {
      ++pos_;
      return *this;
    }
    basic_iterator operator++(int) {
      basic_iterator old = *this;
      ++pos_;
      return old;
    }
    friend bool operator==(const basic_iterator& a, const basic_iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    StoreT* store_ = nullptr;
    std::size_t pos_ = 0;
  };
  using iterator = basic_iterator<false>;
  using const_iterator = basic_iterator<true>;

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, order_.size()}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, order_.size()}; }

  // -- Introspection (tests, benches) ---------------------------------------

  /// The backing arena (heap-page / freelist counters).
  [[nodiscard]] const stats::PointArena& arena() const { return arena_; }
  /// Slot rows ever materialised (live + freelisted). Differential tests
  /// pin this to stop growing under steady churn.
  [[nodiscard]] std::size_t slot_rows() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::size_t kInitialBuckets = 16;

  [[nodiscard]] std::size_t bucket_of(wire::InstanceId id) const {
    return wire::InstanceIdHash{}(id) & mask_;
  }
  /// Claims a slot row for `id` (freelist first), indexes it, appends it to
  /// the iteration order.
  InstanceSlot& emplace_row(wire::InstanceId id);
  void insert_index(std::uint32_t row);
  void rehash(std::size_t buckets);
  /// Backward-shift deletion at `hole`: keeps every remaining element
  /// reachable from its home bucket without tombstones.
  void erase_bucket(std::size_t hole);

  stats::PointArena arena_;
  std::vector<InstanceSlot> slots_;
  std::vector<std::uint32_t> free_rows_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> index_;
  std::size_t mask_ = 0;
};

}  // namespace adam2::core
