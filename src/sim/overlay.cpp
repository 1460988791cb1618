#include "sim/overlay.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "host/registry.hpp"

namespace adam2::sim {

StaticRandomOverlay::StaticRandomOverlay(std::size_t degree)
    : degree_(degree) {
  if (degree_ < 1) {
    throw std::invalid_argument("static overlay degree must be at least 1");
  }
}

StaticRandomOverlay::Links& StaticRandomOverlay::join(host::NodeId id) {
  if (id >= links_.size()) links_.resize(id + 1);
  links_[id].joined = true;
  return links_[id];
}

std::span<const host::NodeId> StaticRandomOverlay::out_of(
    host::NodeId id) const {
  if (id >= links_.size()) return {};
  return links_[id].out;
}

void StaticRandomOverlay::link(host::NodeId a, host::NodeId b) {
  join(a).out.push_back(b);
  join(b).out.push_back(a);
}

void StaticRandomOverlay::build_initial(std::span<const host::NodeId> ids,
                                        const host::HostView& /*host*/,
                                        rng::Rng& rng) {
  links_.clear();
  links_.reserve(ids.size());
  for (host::NodeId id : ids) join(id);
  if (ids.size() < 2) return;
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
  join(id);  // The entry exists even if no peer is available.
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
  if (id >= links_.size()) return;
  const Links removed = std::exchange(links_[id], Links{});
  // Drop the reverse links eagerly so neighbour lists stay small; a dead
  // forward link discovered by a peer is handled as a failed contact. A
  // restored link may name any id, so each one is bounds-checked.
  for (host::NodeId peer : removed.out) {
    if (peer < links_.size()) std::erase(links_[peer].out, id);
  }
}

std::optional<host::NodeId> StaticRandomOverlay::pick_gossip_target(
    host::NodeId id, rng::Rng& rng) const {
  const auto out = out_of(id);
  if (out.empty()) return std::nullopt;
  return out[rng.below(out.size())];
}

std::vector<host::NodeId> StaticRandomOverlay::neighbors(
    host::NodeId id) const {
  const auto out = out_of(id);
  return {out.begin(), out.end()};
}

std::vector<stats::Value> StaticRandomOverlay::known_attribute_values(
    host::NodeId id, const host::HostView& host) const {
  std::vector<stats::Value> values;
  const auto out = out_of(id);
  values.reserve(out.size());
  for (host::NodeId peer : out) {
    if (host.is_live(peer)) values.push_back(host.attribute_of(peer));
  }
  return values;
}

void StaticRandomOverlay::save_state(wire::Writer& out) const {
  out.u64(degree_);
  out.length(static_cast<std::size_t>(
      std::ranges::count_if(links_, [](const Links& l) { return l.joined; })));
  for (host::NodeId id = 0; id < links_.size(); ++id) {
    if (!links_[id].joined) continue;
    out.u64(id);
    out.length(links_[id].out.size());
    for (host::NodeId peer : links_[id].out) out.u64(peer);
  }
}

void StaticRandomOverlay::restore_state(wire::Reader& in,
                                        const host::NodeTable& table) {
  if (in.u64() != degree_) {
    throw wire::DecodeError("static overlay degree mismatch");
  }
  const std::size_t count = in.length(12);  // id + empty neighbour list.
  std::vector<Links> links(table.size());
  for (std::size_t i = 0, next = 0; i < count; ++i) {
    const host::NodeId id = in.u64();
    if (id < next) {
      throw wire::DecodeError("overlay node ids not in sorted order");
    }
    if (id >= table.size()) {
      throw wire::DecodeError("overlay node id beyond the node table");
    }
    next = id + 1;
    const std::size_t n = in.length(8);
    Links& entry = links[id];
    entry.joined = true;
    entry.out.reserve(n);
    for (std::size_t j = 0; j < n; ++j) entry.out.push_back(in.u64());
  }
  // Transactional commit: nothing is mutated until the whole payload parsed
  // (trailing bytes included), so a rejected blob leaves the overlay intact.
  in.expect_done();
  links_ = std::move(links);
}

}  // namespace adam2::sim
