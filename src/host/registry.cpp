#include "host/registry.hpp"

#include <stdexcept>

#include "host/hints.hpp"

namespace adam2::host {

namespace {
/// Salt decorrelating the control stream's tag from the agent stream's tag
/// (both are derived from the same master seed via Rng::split).
constexpr std::uint64_t kPickStreamSalt = 0x9e3779b97f4a7c15ULL;
}  // namespace

Node& NodeTable::spawn(stats::Value attribute, Round birth_round,
                       rng::Rng& seed_rng) {
  if (live_ids_.size() >= kUnplaced) {
    throw std::length_error("node table: too many live nodes");
  }
  const NodeId id = nodes_.size();
  Node node;
  node.id = id;
  node.attribute = attribute;
  node.birth_round = birth_round;
  node.rng = seed_rng.split(id);
  node.pick_rng = seed_rng.split(id ^ kPickStreamSalt);
  nodes_.push_back(std::move(node));
  live_pos_.push_back(static_cast<std::uint32_t>(live_ids_.size()));
  live_ids_.push_back(id);
  return nodes_.back();
}

void NodeTable::kill(NodeId id) {
  Node& n = at(id);
  if (!is_live(id)) return;
  n.agent.reset();

  const std::uint32_t pos = live_pos_[id];
  live_pos_[id] = kDead;
  const NodeId moved = live_ids_.back();
  live_ids_[pos] = moved;
  live_ids_.pop_back();
  if (moved != id) live_pos_[moved] = pos;
}

Node& NodeTable::at(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("unknown node id");
  return nodes_[id];
}

const Node& NodeTable::at(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("unknown node id");
  return nodes_[id];
}

NodeId NodeTable::random_live(rng::Rng& rng) const {
  if (live_ids_.empty()) throw std::runtime_error("no live nodes");
  return live_ids_[rng.below(live_ids_.size())];
}

std::vector<stats::Value> NodeTable::live_attribute_values() const {
  std::vector<stats::Value> values;
  values.reserve(live_ids_.size());
  for (NodeId id : live_ids_) values.push_back(nodes_[id].attribute);
  return values;
}

void NodeTable::reserve(std::size_t count) {
  nodes_.reserve(count);
  // The walks reach node records at random.
  advise_huge_pages(nodes_.data(), nodes_.capacity() * sizeof(Node));
  live_ids_.reserve(count);
  live_pos_.reserve(count);
}

Node& NodeTable::restore_node(stats::Value attribute, Round birth_round,
                              bool alive) {
  Node node;
  node.id = nodes_.size();
  node.attribute = attribute;
  node.birth_round = birth_round;
  nodes_.push_back(std::move(node));
  live_pos_.push_back(alive ? kUnplaced : kDead);
  return nodes_.back();
}

void NodeTable::finish_restore(std::span<const NodeId> live_order) {
  std::size_t alive_count = 0;
  for (std::uint32_t pos : live_pos_) alive_count += pos != kDead ? 1 : 0;
  if (live_order.size() != alive_count) {
    throw std::invalid_argument("finish_restore: live order size mismatch");
  }
  // Positions below alive_count < kUnplaced, so a placed id never reads as
  // unplaced.
  for (std::uint32_t& pos : live_pos_) pos = pos != kDead ? kUnplaced : kDead;
  live_ids_.clear();
  for (NodeId id : live_order) {
    if (!is_live(id)) {
      throw std::invalid_argument("finish_restore: dead or unknown live id");
    }
    if (live_pos_[id] != kUnplaced) {
      throw std::invalid_argument("finish_restore: duplicate live id");
    }
    live_pos_[id] = static_cast<std::uint32_t>(live_ids_.size());
    live_ids_.push_back(id);
  }
}

}  // namespace adam2::host
