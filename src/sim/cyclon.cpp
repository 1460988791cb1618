#include "sim/cyclon.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace adam2::sim {
namespace {

using wire::NodeDescriptor;

bool contains(const std::vector<NodeDescriptor>& entries, host::NodeId id) {
  return std::any_of(entries.begin(), entries.end(),
                     [id](const NodeDescriptor& d) { return d.id == id; });
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

void CyclonOverlay::build_initial(std::span<const host::NodeId> ids,
                                  const host::HostView& host, rng::Rng& rng) {
  views_.clear();
  views_.reserve(ids.size());
  for (host::NodeId id : ids) views_[id];
  if (ids.size() < 2) return;
  for (host::NodeId id : ids) {
    View& view = views_[id];
    for (std::size_t attempts = 0;
         view.entries.size() < config_.view_size && attempts < config_.view_size * 8;
         ++attempts) {
      const host::NodeId other = ids[rng.below(ids.size())];
      if (other == id || contains(view.entries, other)) continue;
      view.entries.push_back(
          {other, 0, host.is_live(other) ? host.attribute_of(other) : 0});
    }
  }
}

void CyclonOverlay::add_node(host::NodeId id, const host::HostView& host,
                             rng::Rng& rng) {
  View& view = views_[id];
  const auto live = host.live_ids();
  if (live.empty()) return;
  // A joining node copies (a subset of) the view of one live contact, as in
  // Cyclon's join by random walks from an introducer.
  const host::NodeId contact = live[rng.below(live.size())];
  if (contact != id) {
    view.entries.push_back({contact, 0, host.attribute_of(contact)});
    auto it = views_.find(contact);
    if (it != views_.end()) {
      for (const NodeDescriptor& d : it->second.entries) {
        if (view.entries.size() >= config_.view_size) break;
        if (d.id == id || contains(view.entries, d.id)) continue;
        view.entries.push_back(d);
      }
    }
  }
  // Fill any remaining slots with random live peers.
  for (std::size_t attempts = 0;
       view.entries.size() < config_.view_size && attempts < config_.view_size * 4;
       ++attempts) {
    const host::NodeId other = live[rng.below(live.size())];
    if (other == id || contains(view.entries, other)) continue;
    view.entries.push_back({other, 0, host.attribute_of(other)});
  }
}

void CyclonOverlay::remove_node(host::NodeId id) { views_.erase(id); }

std::optional<host::NodeId> CyclonOverlay::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  auto it = views_.find(id);
  if (it == views_.end() || it->second.entries.empty()) return std::nullopt;
  const auto& entries = it->second.entries;
  return entries[rng.below(entries.size())].id;
}

std::vector<host::NodeId> CyclonOverlay::neighbors(host::NodeId id) const {
  std::vector<host::NodeId> out;
  auto it = views_.find(id);
  if (it == views_.end()) return out;
  out.reserve(it->second.entries.size());
  for (const NodeDescriptor& d : it->second.entries) out.push_back(d.id);
  return out;
}

std::vector<stats::Value> CyclonOverlay::known_attribute_values(
    host::NodeId id, const host::HostView& /*host*/) const {
  std::vector<stats::Value> values;
  auto it = views_.find(id);
  if (it == views_.end()) return values;
  values.reserve(it->second.entries.size() + it->second.value_cache.size());
  for (const NodeDescriptor& d : it->second.entries) {
    values.push_back(d.attribute);
  }
  values.insert(values.end(), it->second.value_cache.begin(),
                it->second.value_cache.end());
  return values;
}

void CyclonOverlay::maintain(host::HostView& host, rng::Rng& rng) {
  // Iterate over a stable id snapshot: shuffles mutate views_ entries but
  // never insert/erase map keys. The snapshot order feeds rng.shuffle and so
  // determines which draws each node's shuffle consumes; it is deterministic
  // for a fixed insertion history on a fixed standard library, and the
  // golden replay digests (tests/golden_replay_test.cpp) are pinned to it —
  // sorting here would change every digest. Revisit at the next digest
  // re-capture; until then this is a documented exception (DESIGN.md §10).
  std::vector<host::NodeId> ids;
  ids.reserve(views_.size());
  for (const auto& [id, view] : views_) ids.push_back(id);  // adam2-lint: allow(unordered-iter)
  rng.shuffle(ids);
  for (host::NodeId id : ids) {
    if (host.is_live(id)) shuffle_once(id, host, rng);
  }
}

namespace {

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

void CyclonOverlay::shuffle_once(host::NodeId id, host::HostView& host,
                                 rng::Rng& rng) {
  View& view = views_.at(id);
  if (view.entries.empty()) return;

  for (NodeDescriptor& d : view.entries) ++d.age;

  // Contact the oldest entry (Cyclon's tail-swap rule).
  auto oldest = std::max_element(
      view.entries.begin(), view.entries.end(),
      [](const NodeDescriptor& a, const NodeDescriptor& b) {
        return a.age < b.age;
      });
  const host::NodeId target = oldest->id;
  if (!host.is_live(target)) {
    view.entries.erase(oldest);  // Evict the dead entry; retry next round.
    return;
  }

  // Send the oldest entry plus shuffle_size - 1 random others, and a fresh
  // self-descriptor.
  const std::size_t oldest_slot =
      static_cast<std::size_t>(oldest - view.entries.begin());
  const std::size_t extra =
      std::min(config_.shuffle_size - 1, view.entries.size() - 1);
  const std::uint64_t sent_mask =
      pick_slots(1ULL << oldest_slot, view.entries.size(), extra, rng);

  wire::ShuffleMessage& request = request_scratch_;
  request.type = wire::MessageType::kShuffleRequest;
  request.sender = id;
  request.descriptors.clear();
  request.descriptors.push_back({id, 0, host.attribute_of(id)});
  for (std::size_t slot = 0; slot < view.entries.size(); ++slot) {
    if ((sent_mask >> slot) & 1) request.descriptors.push_back(view.entries[slot]);
  }
  host.record_traffic(id, target, host::Channel::kOverlay,
                      request.encoded_size());

  // Responder builds its reply from a random subset of its own view.
  View& peer_view = views_.at(target);
  const std::size_t peer_count =
      std::min(config_.shuffle_size, peer_view.entries.size());
  const std::uint64_t peer_mask =
      peer_view.entries.empty()
          ? 0
          : pick_slots(0, peer_view.entries.size(), peer_count, rng);
  wire::ShuffleMessage& response = response_scratch_;
  response.type = wire::MessageType::kShuffleResponse;
  response.sender = target;
  response.descriptors.clear();
  for (std::size_t slot = 0; slot < peer_view.entries.size(); ++slot) {
    if ((peer_mask >> slot) & 1) {
      response.descriptors.push_back(peer_view.entries[slot]);
    }
  }
  host.record_traffic(target, id, host::Channel::kOverlay,
                      response.encoded_size());

  remember_values(peer_view, request.descriptors);
  remember_values(view, response.descriptors);

  install(target, peer_view, request.descriptors, peer_mask);
  install(id, view, response.descriptors, sent_mask);
}

void CyclonOverlay::install(host::NodeId self, View& view,
                            std::span<const wire::NodeDescriptor> received,
                            std::uint64_t sent_mask) {
  for (const NodeDescriptor& d : received) {
    if (d.id == self || contains(view.entries, d.id)) continue;
    if (view.entries.size() < config_.view_size) {
      view.entries.push_back(d);
      continue;
    }
    if (sent_mask == 0) break;  // View full, nothing left that was sent away.
    const auto slot = static_cast<std::size_t>(std::countr_zero(sent_mask));
    sent_mask &= sent_mask - 1;
    if (slot >= view.entries.size()) break;
    view.entries[slot] = d;
  }
}

void CyclonOverlay::remember_values(
    View& view, std::span<const wire::NodeDescriptor> descriptors) {
  for (const wire::NodeDescriptor& d : descriptors) {
    view.value_cache.push_back(d.attribute);
    while (view.value_cache.size() > config_.value_cache_size) {
      view.value_cache.pop_front();
    }
  }
}

void CyclonOverlay::save_state(wire::Writer& out) const {
  out.u64(config_.view_size);
  out.u64(config_.shuffle_size);
  out.u64(config_.value_cache_size);
  std::vector<host::NodeId> ids;
  ids.reserve(views_.size());
  // Bucket order cannot leak into the snapshot: ids are sorted before
  // anything is encoded.
  // adam2-lint: allow(unordered-iter)
  for (const auto& [id, view] : views_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  out.length(ids.size());
  for (host::NodeId id : ids) {
    const View& view = views_.at(id);
    out.u64(id);
    out.length(view.entries.size());
    for (const wire::NodeDescriptor& d : view.entries) {
      out.u64(d.id);
      out.u32(d.age);
      out.i64(d.attribute);
    }
    out.length(view.value_cache.size());
    for (stats::Value value : view.value_cache) out.i64(value);
  }
}

void CyclonOverlay::restore_state(wire::Reader& in, std::size_t node_count) {
  if (in.u64() != config_.view_size || in.u64() != config_.shuffle_size ||
      in.u64() != config_.value_cache_size) {
    throw wire::DecodeError("cyclon overlay config mismatch");
  }
  const std::size_t count = in.length(16);  // id + two empty sequences.
  std::unordered_map<host::NodeId, View> views;
  views.reserve(count);
  for (std::size_t i = 0, next = 0; i < count; ++i) {
    const host::NodeId id = in.u64();
    if (id < next) {
      throw wire::DecodeError("cyclon view ids not in sorted order");
    }
    if (id >= node_count) {
      throw wire::DecodeError("cyclon view id beyond the node table");
    }
    next = id + 1;
    View& view = views[id];
    const std::size_t entries = in.length(20);
    if (entries > config_.view_size) {
      throw wire::DecodeError("cyclon view exceeds configured capacity");
    }
    view.entries.reserve(entries);
    for (std::size_t j = 0; j < entries; ++j) {
      wire::NodeDescriptor d;
      d.id = in.u64();
      d.age = in.u32();
      d.attribute = in.i64();
      view.entries.push_back(d);
    }
    const std::size_t cached = in.length(8);
    if (cached > config_.value_cache_size) {
      throw wire::DecodeError("cyclon value cache exceeds configured size");
    }
    for (std::size_t j = 0; j < cached; ++j) {
      view.value_cache.push_back(in.i64());
    }
  }
  // Transactional commit: nothing is mutated until the whole payload parsed
  // (trailing bytes included), so a rejected blob leaves the overlay intact.
  in.expect_done();
  views_ = std::move(views);
}

}  // namespace adam2::sim
