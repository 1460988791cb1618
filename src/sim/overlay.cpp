#include "sim/overlay.hpp"

#include <algorithm>
#include <cassert>

namespace adam2::sim {

StaticRandomOverlay::StaticRandomOverlay(std::size_t degree)
    : degree_(degree) {
  assert(degree_ >= 1);
}

void StaticRandomOverlay::link(host::NodeId a, host::NodeId b) {
  links_[a].out.push_back(b);
  links_[b].out.push_back(a);
}

void StaticRandomOverlay::build_initial(std::span<const host::NodeId> ids,
                                        const host::HostView& /*host*/,
                                        rng::Rng& rng) {
  links_.clear();
  links_.reserve(ids.size());
  if (ids.size() < 2) {
    for (host::NodeId id : ids) links_[id];
    return;
  }
  // Random ring (guarantees connectivity) plus random chords up to `degree_`.
  std::vector<host::NodeId> order(ids.begin(), ids.end());
  rng.shuffle(order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    link(order[i], order[(i + 1) % order.size()]);
  }
  const std::size_t chords_per_node = degree_ > 2 ? (degree_ - 2) / 2 : 0;
  for (host::NodeId id : ids) {
    for (std::size_t c = 0; c < chords_per_node; ++c) {
      host::NodeId other = ids[rng.below(ids.size())];
      if (other != id) link(id, other);
    }
  }
}

void StaticRandomOverlay::add_node(host::NodeId id, const host::HostView& host,
                                   rng::Rng& rng) {
  links_[id];  // Ensure the entry exists even if no peer is available.
  const auto live = host.live_ids();
  if (live.empty()) return;
  for (std::size_t attempts = 0, added = 0;
       added < degree_ && attempts < degree_ * 8; ++attempts) {
    host::NodeId other = live[rng.below(live.size())];
    if (other == id) continue;
    link(id, other);
    ++added;
  }
}

void StaticRandomOverlay::remove_node(host::NodeId id) {
  auto it = links_.find(id);
  if (it == links_.end()) return;
  // Drop the reverse links eagerly so neighbour lists stay small; a dead
  // forward link discovered by a peer is handled as a failed contact.
  for (host::NodeId peer : it->second.out) {
    auto peer_it = links_.find(peer);
    if (peer_it == links_.end()) continue;
    std::erase(peer_it->second.out, id);
  }
  links_.erase(it);
}

std::optional<host::NodeId> StaticRandomOverlay::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  auto it = links_.find(id);
  if (it == links_.end() || it->second.out.empty()) return std::nullopt;
  const auto& out = it->second.out;
  return out[rng.below(out.size())];
}

std::vector<host::NodeId> StaticRandomOverlay::neighbors(
    host::NodeId id) const {
  auto it = links_.find(id);
  if (it == links_.end()) return {};
  return it->second.out;
}

std::vector<stats::Value> StaticRandomOverlay::known_attribute_values(
    host::NodeId id, const host::HostView& host) const {
  std::vector<stats::Value> values;
  auto it = links_.find(id);
  if (it == links_.end()) return values;
  values.reserve(it->second.out.size());
  for (host::NodeId peer : it->second.out) {
    if (host.is_live(peer)) values.push_back(host.attribute_of(peer));
  }
  return values;
}

void StaticRandomOverlay::save_state(wire::Writer& out) const {
  out.u64(degree_);
  std::vector<host::NodeId> ids;
  ids.reserve(links_.size());
  // Bucket order cannot leak into the snapshot: ids are sorted before
  // anything is encoded.
  // adam2-lint: allow(unordered-iter)
  for (const auto& [id, links] : links_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  out.length(ids.size());
  for (host::NodeId id : ids) {
    out.u64(id);
    const std::vector<host::NodeId>& neighbours = links_.at(id).out;
    out.length(neighbours.size());
    for (host::NodeId peer : neighbours) out.u64(peer);
  }
}

void StaticRandomOverlay::restore_state(wire::Reader& in) {
  if (in.u64() != degree_) {
    throw wire::DecodeError("static overlay degree mismatch");
  }
  const std::size_t count = in.length(12);  // id + empty neighbour list.
  std::unordered_map<host::NodeId, Links> links;
  links.reserve(count);
  bool have_prev = false;
  host::NodeId prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const host::NodeId id = in.u64();
    if (have_prev && id <= prev) {
      throw wire::DecodeError("overlay node ids not in sorted order");
    }
    prev = id;
    have_prev = true;
    const std::size_t n = in.length(8);
    Links& entry = links[id];
    entry.out.reserve(n);
    for (std::size_t j = 0; j < n; ++j) entry.out.push_back(in.u64());
  }
  // Transactional commit: nothing is mutated until the whole payload parsed
  // (trailing bytes included), so a rejected blob leaves the overlay intact.
  in.expect_done();
  links_ = std::move(links);
}

}  // namespace adam2::sim
