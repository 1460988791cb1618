#include "stats/point_arena.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace adam2::stats {
namespace {

constexpr std::size_t kMinClass = PointArena::kMinClassPoints;

std::size_t class_index(std::uint32_t capacity) {
  return static_cast<std::size_t>(std::bit_width(capacity) - 1) - 3;
}

// A free block's first bytes hold the next free block of its class. Every
// block spans at least kMinClass points, so the link always fits; memcpy
// keeps the access well-defined on CdfPoint storage.
static_assert(sizeof(CdfPoint*) <= kMinClass * sizeof(CdfPoint));

CdfPoint* next_free(const CdfPoint* block) {
  CdfPoint* next = nullptr;
  std::memcpy(&next, block, sizeof next);
  return next;
}

}  // namespace

std::uint32_t PointArena::class_of(std::size_t count) {
  if (count <= kMinClass) return kMinClass;
  if (count > (std::size_t{1} << kMaxClassLog2)) {
    throw std::length_error("PointArena: point sequence too large");
  }
  return static_cast<std::uint32_t>(std::bit_ceil(count));
}

PointArena::Block PointArena::allocate(std::size_t count) {
  if (count == 0) return {};
  const std::uint32_t capacity = class_of(count);
  CdfPoint*& head = free_[class_index(capacity)];
  if (head != nullptr) {
    CdfPoint* data = head;
    head = next_free(data);
    return {data, capacity};
  }
  return {bump(capacity), capacity};
}

void PointArena::release(CdfPoint* data, std::uint32_t capacity) {
  if (data == nullptr) return;
  assert(capacity >= kMinClass && std::has_single_bit(capacity));
  CdfPoint*& head = free_[class_index(capacity)];
  std::memcpy(static_cast<void*>(data), &head, sizeof head);
  head = data;
}

CdfPoint* PointArena::bump(std::size_t capacity) {
  if (static_cast<std::size_t>(page_end_ - cursor_) < capacity) {
    // The tail of the old page (always smaller than one class of the
    // request) is abandoned; bounded waste per page, recovered when the
    // block is eventually recycled anyway.
    const std::size_t page = std::max(capacity, next_page_);
    next_page_ = std::min(next_page_ * 2, kPageCapacity);
    pages_.push_back(std::make_unique<CdfPoint[]>(page));
    cursor_ = pages_.back().get();
    page_end_ = cursor_ + page;
    reserved_ += page;
  }
  CdfPoint* data = cursor_;
  cursor_ += capacity;
  return data;
}

std::size_t PointArena::free_blocks() const {
  std::size_t n = 0;
  for (const CdfPoint* block : free_) {
    for (; block != nullptr; block = next_free(block)) ++n;
  }
  return n;
}

}  // namespace adam2::stats
