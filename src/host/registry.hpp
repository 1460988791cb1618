// NodeTable: the node registry shared by every hosting substrate.
//
// Owns the node records, indexed by id: spawn() issues id = size(), so a
// node's id is its position and every lookup is a bounds-checked array
// access. Beside them it keeps the dense live-id vector (O(1) removal via
// swap-with-back) and, per id, the node's position in it or a dead mark:
// the one liveness table. is_live reads 4 B per id there, never the node
// record, so the hot walks that ask it (Cyclon's shuffle decision, the
// exchange's target check) touch no record for it. reserve() asks for huge
// pages under the records, which the walks reach at random. Both
// simulators layer their own scheduling (rounds, events) on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "host/node.hpp"
#include "host/types.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"

namespace adam2::host {

class NodeTable {
 public:
  /// Creates a live node with id size() and both per-node random streams
  /// derived from `seed_rng` (which is advanced). The agent is NOT attached —
  /// the caller builds a context and attaches one. The reference stays valid
  /// until the next spawn. Throws std::length_error once the live set would
  /// reach 2^32 - 2 nodes (positions are 32-bit).
  Node& spawn(stats::Value attribute, Round birth_round, rng::Rng& seed_rng);

  /// Marks `id` dead, destroys its agent (state dies with the node — its
  /// mass is lost, §VII-G) and removes it from the live set. The caller is
  /// responsible for overlay removal and any substrate-local cleanup.
  /// No-op when the node is already dead; throws std::out_of_range for
  /// unknown ids.
  void kill(NodeId id);

  /// False for a killed node and for an unknown id.
  [[nodiscard]] bool is_live(NodeId id) const {
    return id < live_pos_.size() && live_pos_[id] != kDead;
  }

  /// Node lookup by id, including dead nodes; throws std::out_of_range for
  /// unknown ids.
  [[nodiscard]] Node& at(NodeId id);
  [[nodiscard]] const Node& at(NodeId id) const;

  [[nodiscard]] std::span<const NodeId> live_ids() const { return live_ids_; }
  [[nodiscard]] std::size_t live_count() const { return live_ids_.size(); }
  /// Count of all nodes ever created (live + departed); every id is below it.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// A uniformly random live node id; throws std::runtime_error when empty.
  [[nodiscard]] NodeId random_live(rng::Rng& rng) const;

  [[nodiscard]] stats::Value attribute_of(NodeId id) const {
    return at(id).attribute;
  }
  void set_attribute(NodeId id, stats::Value value) { at(id).attribute = value; }

  /// Attribute values of all live nodes (the ground truth population).
  [[nodiscard]] std::vector<stats::Value> live_attribute_values() const;

  void reserve(std::size_t count);

  // -- Checkpoint restore primitives (host::snapshot, DESIGN.md §12) --------

  /// Re-creates the next node record (id size()) during a restore. The
  /// node's rng streams and agent are left default — the snapshot reader
  /// installs them afterwards. An alive node is live from here on, but its
  /// place in the live-id order is NOT established here; finish_restore()
  /// installs the recorded live order.
  Node& restore_node(stats::Value attribute, Round birth_round, bool alive);

  /// Installs the live-id order (history-dependent: kill() swaps with the
  /// back, so it cannot be derived from the records). Every entry must name
  /// a distinct node marked alive by restore_node, and every alive node must
  /// appear; throws std::invalid_argument otherwise.
  void finish_restore(std::span<const NodeId> live_order);

 private:
  static constexpr std::uint32_t kDead = 0xffffffffU;
  /// Restored alive, not yet placed by finish_restore.
  static constexpr std::uint32_t kUnplaced = 0xfffffffeU;

  std::vector<Node> nodes_;  // Indexed by id.
  std::vector<NodeId> live_ids_;
  // Per id: the node's live_ids_ slot, or kDead (or, between restore_node
  // and finish_restore, kUnplaced).
  std::vector<std::uint32_t> live_pos_;
};

}  // namespace adam2::host
