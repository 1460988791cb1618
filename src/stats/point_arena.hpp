// Slab arena for CdfPoint sequences (the H and V series of live
// aggregation instances).
//
// The Adam2 merge loop touches every point of every active instance every
// round; with the points scattered across per-instance std::vector heap
// blocks that walk is pointer-chasing through the allocator's layout. The
// arena packs point blocks into a few contiguous pages instead, so one
// agent's working set occupies a handful of cache-resident slabs, and it
// recycles freed blocks through per-size-class freelists so the steady-state
// instance lifecycle (create / join / expire) performs zero heap
// allocations once the high-water mark has been seen (DESIGN.md §7.5).
//
// Allocation model:
//  * Requests are rounded up to a power-of-two capacity class (min 8
//    points, 128 B). A freed block of class c serves any later request of
//    class c — instance churn at a fixed lambda recycles perfectly.
//  * Fresh blocks are bump-allocated from the current page. An idle arena
//    holds no page at all: the first allocate() takes a heap page of
//    kFirstPageCapacity points (one series at the paper's default
//    lambda = 50, class 64), and each later page doubles, up to
//    kPageCapacity. A request larger than the next page size gets a page of
//    exactly its class size.
//  * Blocks never move: pages are retained until the arena dies, so
//    CdfPoint* handles stay valid for the lifetime of the block.
//  * The freelists are intrusive: a free block stores the next free block
//    of its class in its own first bytes, so release() never allocates.
//    Reuse is last-in first-out per class.
//
// The arena is neither copyable nor movable — handed-out pointers are tied
// to the arena that issued them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/cdf.hpp"

namespace adam2::stats {

class PointArena {
 public:
  /// Size of the first page, in points: one lambda = 50 series (class 64).
  static constexpr std::size_t kFirstPageCapacity = 64;
  /// Largest regular page size, in points (16 KiB pages).
  static constexpr std::size_t kPageCapacity = 1024;
  /// Smallest capacity class, in points.
  static constexpr std::size_t kMinClassPoints = 8;

  /// A block handle: `capacity` is the rounded-up class size that must be
  /// passed back to release(). data == nullptr iff the request was empty.
  struct Block {
    CdfPoint* data = nullptr;
    std::uint32_t capacity = 0;
  };

  PointArena() = default;
  PointArena(const PointArena&) = delete;
  PointArena& operator=(const PointArena&) = delete;
  PointArena(PointArena&&) = delete;
  PointArena& operator=(PointArena&&) = delete;

  /// Returns a block with capacity >= count (the next capacity class),
  /// recycled from the freelist when possible. count == 0 returns the null
  /// block. The points are uninitialised; callers overwrite them.
  [[nodiscard]] Block allocate(std::size_t count);

  /// Returns a block to its class freelist. `capacity` must be the value
  /// allocate() handed out. Accepts the null block as a no-op.
  void release(CdfPoint* data, std::uint32_t capacity);

  // -- Introspection (tests, benches) ---------------------------------------

  /// Heap pages allocated so far. Differential tests pin this to stop
  /// growing once the working set has been seen.
  [[nodiscard]] std::size_t heap_pages() const { return pages_.size(); }
  /// Total point capacity reserved across all pages.
  [[nodiscard]] std::size_t reserved_points() const { return reserved_; }
  /// Blocks currently parked on freelists (walks them).
  [[nodiscard]] std::size_t free_blocks() const;

  /// Capacity class for a request of `count` points (what allocate() would
  /// round up to). Exposed for tests.
  [[nodiscard]] static std::uint32_t class_of(std::size_t count);

 private:
  // Classes are powers of two from 2^3 to 2^26 points; index = log2 - 3.
  static constexpr std::size_t kMaxClassLog2 = 26;
  static constexpr std::size_t kClassCount = kMaxClassLog2 - 3 + 1;

  [[nodiscard]] CdfPoint* bump(std::size_t capacity);

  std::vector<std::unique_ptr<CdfPoint[]>> pages_;
  CdfPoint* cursor_ = nullptr;
  CdfPoint* page_end_ = nullptr;
  std::size_t reserved_ = 0;
  std::size_t next_page_ = kFirstPageCapacity;
  /// Per-class heads of the intrusive freelists (nullptr = empty).
  std::array<CdfPoint*, kClassCount> free_{};
};

}  // namespace adam2::stats
