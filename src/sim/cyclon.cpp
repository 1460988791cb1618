#include "sim/cyclon.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "host/hints.hpp"
#include "host/registry.hpp"

namespace adam2::sim {
namespace {

using wire::NodeDescriptor;

constexpr std::size_t kPrefetchAhead = 8;  // Walk units.
/// Look-ahead stages (one worker), kGuessAt and kRingAt units apart: unit
/// u loads its view, unit u - kGuessAt guesses its target and loads it,
/// unit u - kRingAt loads the target's value-cache write line.
constexpr std::size_t kGuessAt = 6;
constexpr std::size_t kRingAt = 12;
static_assert(kRingAt < host::WorkerPool::kLookAhead,
              "every stage precedes the unit's decision");

/// Ages every entry and returns the slot of the oldest, the first one on a
/// tie (std::max_element's rule), in one pass without a data-dependent
/// branch. `entries` must not be empty.
std::size_t age_and_find_oldest(std::span<NodeDescriptor> entries) {
  std::size_t oldest = 0;
  std::uint32_t oldest_age = 0;
  for (std::size_t slot = 0; slot < entries.size(); ++slot) {
    const std::uint32_t age = ++entries[slot].age;
    const bool older = slot == 0 || age > oldest_age;
    oldest = older ? slot : oldest;
    oldest_age = older ? age : oldest_age;
  }
  return oldest;
}

/// The slot of the oldest entry, without aging (the same slot aging would
/// give, since aging adds one to every entry). `entries` must not be empty.
std::size_t find_oldest(std::span<const NodeDescriptor> entries) {
  std::size_t oldest = 0;
  for (std::size_t slot = 1; slot < entries.size(); ++slot) {
    oldest = entries[slot].age > entries[oldest].age ? slot : oldest;
  }
  return oldest;
}

/// Picks `want` distinct random slots out of [0, size) in addition to the
/// bits already set in `mask`. Rejection sampling on a 64-bit slot mask —
/// views are small (<= 64), so this is allocation-free and fast.
std::uint64_t pick_slots(std::uint64_t mask, std::size_t size,
                         std::size_t want, rng::Rng& rng) {
  while (want > 0) {
    const std::uint64_t bit = 1ULL << rng.below(size);
    if ((mask & bit) != 0) continue;
    mask |= bit;
    --want;
  }
  return mask;
}

}  // namespace

CyclonOverlay::CyclonOverlay(CyclonConfig config) : config_(config) {
  if (config_.view_size < 1 || config_.view_size > 64) {  // 64-bit slot masks.
    throw std::invalid_argument("cyclon view size must be in [1, 64]");
  }
  if (config_.shuffle_size < 1 || config_.shuffle_size > config_.view_size) {
    throw std::invalid_argument(
        "cyclon shuffle size must be in [1, view size]");
  }
}

// -- Block pool ---------------------------------------------------------------

void CyclonOverlay::Pool::reserve(std::size_t views,
                                  const CyclonConfig& config) {
  block_of.reserve(views);
  blocks.reserve(views);
  slots.reserve(views * config.view_size);
  ring.reserve(views * config.value_cache_size);
  // The walks reach views and value caches at random.
  host::advise_huge_pages(slots.data(), slots.capacity() * sizeof(slots[0]));
  host::advise_huge_pages(ring.data(), ring.capacity() * sizeof(ring[0]));
}

bool CyclonOverlay::View::contains(host::NodeId id) const {
  // No early exit: a view is at most 64 entries, and a scan without a
  // data-dependent branch does not mispredict.
  bool found = false;
  for (const NodeDescriptor& d : entries()) found |= d.id == id;
  return found;
}

void CyclonOverlay::View::erase(std::size_t slot) const {
  std::copy(slots.begin() + slot + 1, slots.begin() + block.size,
            slots.begin() + slot);
  --block.size;
}

void CyclonOverlay::View::remember(stats::Value value) const {
  if (ring.empty()) return;  // A cache size of 0 keeps nothing.
  if (block.cache_size == ring.size()) {  // Full: overwrite the oldest.
    ring[block.cache_head] = value;
    if (++block.cache_head == ring.size()) block.cache_head = 0;
    return;
  }
  std::size_t at = block.cache_head + block.cache_size++;
  if (at >= ring.size()) at -= ring.size();
  ring[at] = value;
}

CyclonOverlay::View CyclonOverlay::allocate(host::NodeId id) {
  if (id >= pool_.block_of.size()) pool_.block_of.resize(id + 1, kNoBlock);
  std::uint32_t& block = pool_.block_of[id];
  if (block == kNoBlock && !pool_.free.empty()) {
    block = pool_.free.back();
    pool_.free.pop_back();
  } else if (block == kNoBlock) {
    block = static_cast<std::uint32_t>(pool_.blocks.size());
    pool_.blocks.emplace_back();
    pool_.slots.resize(pool_.slots.size() + config_.view_size);
    pool_.ring.resize(pool_.ring.size() + config_.value_cache_size);
  }
  pool_.blocks[block] = Block{};  // A reused or re-added block starts empty.
  return at(block);
}

CyclonOverlay::View CyclonOverlay::at(std::uint32_t block) {
  return {pool_.blocks[block],
          std::span(pool_.slots).subspan(block * config_.view_size,
                                         config_.view_size),
          std::span(pool_.ring).subspan(block * config_.value_cache_size,
                                        config_.value_cache_size)};
}

std::uint32_t CyclonOverlay::block_of(host::NodeId id) const {
  return id < pool_.block_of.size() ? pool_.block_of[id] : kNoBlock;
}

std::span<const NodeDescriptor> CyclonOverlay::entries(
    std::uint32_t block) const {
  return std::span(pool_.slots).subspan(block * config_.view_size,
                                        pool_.blocks[block].size);
}

std::array<std::span<const stats::Value>, 2> CyclonOverlay::cached(
    std::uint32_t block) const {
  const Block& b = pool_.blocks[block];
  const auto ring = std::span(pool_.ring).subspan(
      block * config_.value_cache_size, config_.value_cache_size);
  const std::size_t first = std::min(b.cache_size, ring.size() - b.cache_head);
  return {ring.subspan(b.cache_head, first),
          ring.first(b.cache_size - first)};
}

// -- Overlay ------------------------------------------------------------------

void CyclonOverlay::build_initial(std::span<const host::NodeId> ids,
                                  const host::HostView& host, rng::Rng& rng) {
  pool_ = Pool{};
  pool_.reserve(ids.size(), config_);
  for (host::NodeId id : ids) {
    const View view = allocate(id);  // Within the reserve: nothing moves.
    if (ids.size() < 2) continue;
    for (std::size_t attempts = 0;
         !view.full() && attempts < config_.view_size * 8; ++attempts) {
      const host::NodeId other = ids[rng.below(ids.size())];
      if (other == id || view.contains(other)) continue;
      view.push(
          {other, 0, host.is_live(other) ? host.attribute_of(other) : 0});
    }
  }
}

void CyclonOverlay::add_node(host::NodeId id, const host::HostView& host,
                             rng::Rng& rng) {
  // Allocating first: it can grow the pool, which moves every block.
  const View view = allocate(id);
  const auto live = host.live_ids();
  if (live.empty()) return;
  // A joining node copies (a subset of) the view of one live contact, as in
  // Cyclon's join by random walks from an introducer.
  const host::NodeId contact = live[rng.below(live.size())];
  if (contact != id) {
    view.push({contact, 0, host.attribute_of(contact)});
    if (const std::uint32_t block = block_of(contact); block != kNoBlock) {
      for (const NodeDescriptor& d : entries(block)) {
        if (view.full()) break;
        if (d.id == id || view.contains(d.id)) continue;
        view.push(d);
      }
    }
  }
  // Fill any remaining slots with random live peers.
  for (std::size_t attempts = 0;
       !view.full() && attempts < config_.view_size * 4; ++attempts) {
    const host::NodeId other = live[rng.below(live.size())];
    if (other == id || view.contains(other)) continue;
    view.push({other, 0, host.attribute_of(other)});
  }
}

void CyclonOverlay::remove_node(host::NodeId id) {
  const std::uint32_t block = block_of(id);
  if (block == kNoBlock) return;
  pool_.free.push_back(block);
  pool_.block_of[id] = kNoBlock;
}

std::optional<host::NodeId> CyclonOverlay::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  const std::uint32_t block = block_of(id);
  if (block == kNoBlock || pool_.blocks[block].size == 0) return std::nullopt;
  const auto peers = entries(block);
  return peers[rng.below(peers.size())].id;
}

std::vector<host::NodeId> CyclonOverlay::neighbors(host::NodeId id) const {
  std::vector<host::NodeId> out;
  const std::uint32_t block = block_of(id);
  if (block == kNoBlock) return out;
  const auto peers = entries(block);
  out.reserve(peers.size());
  for (const NodeDescriptor& d : peers) out.push_back(d.id);
  return out;
}

std::vector<stats::Value> CyclonOverlay::known_attribute_values(
    host::NodeId id, const host::HostView& /*host*/) const {
  std::vector<stats::Value> values;
  const std::uint32_t block = block_of(id);
  if (block == kNoBlock) return values;
  const auto peers = entries(block);
  const auto [older, newer] = cached(block);
  values.reserve(peers.size() + older.size() + newer.size());
  for (const NodeDescriptor& d : peers) values.push_back(d.attribute);
  values.insert(values.end(), older.begin(), older.end());
  values.insert(values.end(), newer.begin(), newer.end());
  return values;
}

void CyclonOverlay::maintain(host::HostView& host, rng::Rng& rng) {
  host::WorkerPool inline_pool(1);
  maintain(host, rng, inline_pool);
}

void CyclonOverlay::maintain(host::HostView& host, rng::Rng& rng,
                             host::WorkerPool& pool) {
  // Back to front: the walk every churn-free pinned digest was captured with.
  const auto live = host.live_ids();
  order_.assign(live.rbegin(), live.rend());
  rng.shuffle(order_);
  shuffles_.resize(std::min(order_.size(), pool.pending_limit()));
  while (messages_.size() < pool.size()) {
    Messages& added = messages_.emplace_back();
    added.request.reserve(1 + config_.shuffle_size);
    added.response.reserve(config_.shuffle_size);
  }
  // A node's id is its slot: every live id indexes block_of.
  pool.run_ordered(
      order_.size(), pool_.block_of.size(),
      [&](std::size_t unit, host::WorkerPool::Claims& claims) {
        return decide_shuffle(unit, host, rng, claims);
      },
      [&](std::size_t unit, std::size_t worker) {
        apply_shuffle(order_[unit], shuffles_[unit % shuffles_.size()], host,
                      messages_[worker]);
      },
      [&](std::size_t unit) { look_ahead(unit, host); });
}

void CyclonOverlay::prefetch_view(std::uint32_t block) const {
  if (block == kNoBlock) return;
  __builtin_prefetch(&pool_.blocks[block], 1);
  host::prefetch_bytes<true>(pool_.slots.data() + block * config_.view_size,
                             config_.view_size * sizeof(NodeDescriptor));
}

std::optional<host::NodeId> CyclonOverlay::guess_target(
    std::size_t unit) const {
  const std::uint32_t block = block_of(order_[unit]);
  if (block == kNoBlock || pool_.blocks[block].size == 0) return std::nullopt;
  const auto own = entries(block);
  return own[find_oldest(own)].id;
}

void CyclonOverlay::prefetch_ring_write(std::uint32_t block) const {
  const std::size_t capacity = config_.value_cache_size;
  if (capacity == 0) return;
  const Block& b = pool_.blocks[block];
  std::size_t at = b.cache_head + b.cache_size;  // Where remember writes.
  if (at >= capacity) at -= capacity;
  const std::size_t count = std::min(capacity, 1 + config_.shuffle_size);
  const std::size_t first = std::min(count, capacity - at);
  const stats::Value* ring = pool_.ring.data() + block * capacity;
  host::prefetch_bytes<true>(ring + at, first * sizeof(stats::Value));
  host::prefetch_bytes<true>(ring, (count - first) * sizeof(stats::Value));
}

void CyclonOverlay::look_ahead(std::size_t unit,
                               const host::HostView& host) const {
  // Stage 0: the initiator's view, and the record the apply reads for its
  // own descriptor.
  prefetch_view(block_of(order_[unit]));
  host.prefetch_node(order_[unit]);
  // That view has arrived: guess the target, the oldest entry, and load
  // the target's block and descriptors and the initiator's write line.
  if (unit >= kGuessAt) {
    const std::size_t guessed = unit - kGuessAt;
    if (const auto target = guess_target(guessed)) {
      prefetch_ring_write(block_of(order_[guessed]));
      prefetch_view(block_of(*target));
    }
  }
  // The target's block has arrived: load its write line.
  if (unit >= kRingAt) {
    if (const auto target = guess_target(unit - kRingAt)) {
      if (const std::uint32_t block = block_of(*target); block != kNoBlock) {
        prefetch_ring_write(block);
      }
    }
  }
}

CyclonOverlay::View CyclonOverlay::live_view(host::NodeId id) {
  const std::uint32_t block = block_of(id);
  if (block == kNoBlock) {
    throw std::logic_error("cyclon: a live node has no view");
  }
  return at(block);
}

bool CyclonOverlay::decide_shuffle(std::size_t unit, host::HostView& host,
                                   rng::Rng& rng,
                                   host::WorkerPool::Claims& claims) {
  // Start loading the view a few units ahead: the walk is the pass's
  // critical path, and views lie scattered across the pool.
  if (unit + kPrefetchAhead < order_.size()) {
    prefetch_view(block_of(order_[unit + kPrefetchAhead]));
  }
  Shuffle& shuffle = shuffles_[unit % shuffles_.size()];
  const host::NodeId id = order_[unit];
  claims.claim(static_cast<std::uint32_t>(id));
  const View view = live_view(id);
  if (view.block.size == 0) return false;

  // Age the view and contact its oldest entry (Cyclon's tail-swap rule),
  // the first one on a tie.
  const auto entries = view.entries();
  const std::size_t oldest_slot = age_and_find_oldest(entries);
  const host::NodeId target = entries[oldest_slot].id;
  if (!host.is_live(target)) {
    view.erase(oldest_slot);  // Evict the dead entry; retry next round.
    return false;
  }

  // Send the oldest entry plus shuffle_size - 1 random others, and a fresh
  // self-descriptor.
  const std::size_t extra =
      std::min(config_.shuffle_size - 1, entries.size() - 1);
  shuffle.target = target;
  shuffle.sent_mask =
      pick_slots(1ULL << oldest_slot, entries.size(), extra, rng);
  host.record_traffic(host::Channel::kOverlay,
                      wire::ShuffleMessage::encoded_size(
                          1 + std::popcount(shuffle.sent_mask)));

  // The responder replies with a random subset of its own view.
  claims.claim(static_cast<std::uint32_t>(target));
  const std::size_t peer_size = live_view(target).block.size;
  const std::size_t peer_count = std::min(config_.shuffle_size, peer_size);
  shuffle.peer_mask =
      peer_size == 0 ? 0 : pick_slots(0, peer_size, peer_count, rng);
  host.record_traffic(
      host::Channel::kOverlay,
      wire::ShuffleMessage::encoded_size(std::popcount(shuffle.peer_mask)));
  return true;
}

void CyclonOverlay::apply_shuffle(host::NodeId id, const Shuffle& shuffle,
                                  const host::HostView& host,
                                  Messages& messages) {
  const View view = at(block_of(id));
  const View peer_view = at(block_of(shuffle.target));

  // Both messages' descriptors, copied before either view changes.
  std::vector<NodeDescriptor>& request = messages.request;
  request.clear();
  request.push_back({id, 0, host.attribute_of(id)});
  // The set bits in ascending order; the decision drew each mask inside
  // its view's entries.
  const auto entries = view.entries();
  for (std::uint64_t mask = shuffle.sent_mask; mask != 0; mask &= mask - 1) {
    request.push_back(entries[std::countr_zero(mask)]);
  }
  std::vector<NodeDescriptor>& response = messages.response;
  response.clear();
  const auto peer_entries = peer_view.entries();
  for (std::uint64_t mask = shuffle.peer_mask; mask != 0; mask &= mask - 1) {
    response.push_back(peer_entries[std::countr_zero(mask)]);
  }

  for (const NodeDescriptor& d : request) peer_view.remember(d.attribute);
  for (const NodeDescriptor& d : response) view.remember(d.attribute);

  install(shuffle.target, peer_view, request, shuffle.peer_mask);
  install(id, view, response, shuffle.sent_mask);
}

void CyclonOverlay::install(host::NodeId self, const View& view,
                            std::span<const wire::NodeDescriptor> received,
                            std::uint64_t sent_mask) {
  for (const NodeDescriptor& d : received) {
    if (d.id == self || view.contains(d.id)) continue;
    if (!view.full()) {
      view.push(d);
      continue;
    }
    if (sent_mask == 0) break;  // View full, nothing left that was sent away.
    const auto slot = static_cast<std::size_t>(std::countr_zero(sent_mask));
    sent_mask &= sent_mask - 1;
    if (slot >= view.block.size) break;
    view.slots[slot] = d;
  }
}

// -- Snapshot -----------------------------------------------------------------

void CyclonOverlay::save_state(wire::Writer& out) const {
  out.u64(config_.view_size);
  out.u64(config_.shuffle_size);
  out.u64(config_.value_cache_size);
  out.length(pool_.blocks.size() - pool_.free.size());
  for (host::NodeId id = 0; id < pool_.block_of.size(); ++id) {
    const std::uint32_t block = pool_.block_of[id];
    if (block == kNoBlock) continue;
    out.u64(id);
    const auto peers = entries(block);
    out.length(peers.size());
    for (const wire::NodeDescriptor& d : peers) {
      out.u64(d.id);
      out.u32(d.age);
      out.i64(d.attribute);
    }
    const auto [older, newer] = cached(block);
    out.length(older.size() + newer.size());
    for (stats::Value value : older) out.i64(value);
    for (stats::Value value : newer) out.i64(value);
  }
}

void CyclonOverlay::restore_state(wire::Reader& in,
                                  const host::NodeTable& table) {
  if (in.u64() != config_.view_size || in.u64() != config_.shuffle_size ||
      in.u64() != config_.value_cache_size) {
    throw wire::DecodeError("cyclon overlay config mismatch");
  }
  // One view per live node: with the ids strictly ascending and each one
  // live, the count makes every live node have one (maintain relies on it).
  const std::size_t count = in.length(16);  // id + two empty sequences.
  if (count != table.live_count()) {
    throw wire::DecodeError("cyclon views do not cover the live nodes");
  }
  CyclonOverlay restored(config_);
  Pool& pool = restored.pool_;
  pool.block_of.assign(table.size(), kNoBlock);
  pool.reserve(count, config_);
  for (std::size_t i = 0, next = 0; i < count; ++i) {
    const host::NodeId id = in.u64();
    if (id < next) {
      throw wire::DecodeError("cyclon view ids not in sorted order");
    }
    if (!table.is_live(id)) {
      throw wire::DecodeError("cyclon view for a node that is not live");
    }
    next = id + 1;
    const View view = restored.allocate(id);
    const std::size_t size = in.length(20);
    if (size > config_.view_size) {
      throw wire::DecodeError("cyclon view exceeds configured capacity");
    }
    for (std::size_t j = 0; j < size; ++j) {
      wire::NodeDescriptor d;
      d.id = in.u64();
      d.age = in.u32();
      d.attribute = in.i64();
      view.push(d);
    }
    const std::size_t values = in.length(8);
    if (values > config_.value_cache_size) {
      throw wire::DecodeError("cyclon value cache exceeds configured size");
    }
    for (std::size_t j = 0; j < values; ++j) view.remember(in.i64());
  }
  // Transactional commit: nothing is mutated until the whole payload parsed
  // (trailing bytes included), so a rejected blob leaves the overlay intact.
  in.expect_done();
  pool_ = std::move(pool);
}

}  // namespace adam2::sim
