// Tombstones: a bounded memory of recently finished instance ids.
//
// Peers finalise an instance at slightly different moments (especially
// under asynchronous gossip), and a straggler's message must not resurrect
// an instance this node already completed — a rejoined instance would
// average from scratch and corrupt the estimate (EXPERIMENTS.md, finding 2).
// Adam2Agent and the EquiDepth baseline both keep one.
//
// The ring holds at most kCapacity ids. It grows to kCapacity on demand (an
// agent that never finishes an instance holds no storage), then each insert
// overwrites the oldest id. Membership is a linear scan: a node holds a few
// dozen tombstones in practice, where the scan costs tens of nanoseconds and
// a hash set would cost a node allocation per id plus a bucket array per
// agent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "wire/messages.hpp"

namespace adam2::core {

class TombstoneRing {
 public:
  static constexpr std::size_t kCapacity = 128;

  [[nodiscard]] bool contains(wire::InstanceId id) const {
    return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
  }

  /// Remembers `id`, forgetting the oldest id once kCapacity are held.
  void insert(wire::InstanceId id) {
    if (ids_.size() < kCapacity) {
      ids_.push_back(id);
      return;
    }
    ids_[oldest_] = id;
    oldest_ = (oldest_ + 1) % kCapacity;
  }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Calls fn(id) for every held id, oldest first (insertion order).
  template <typename Fn>
  void for_each_oldest_first(Fn&& fn) const {
    for (std::size_t i = oldest_; i < ids_.size(); ++i) fn(ids_[i]);
    for (std::size_t i = 0; i < oldest_; ++i) fn(ids_[i]);
  }

  void clear() {
    ids_.clear();
    oldest_ = 0;
  }

 private:
  std::vector<wire::InstanceId> ids_;
  std::size_t oldest_ = 0;  ///< Next slot to overwrite once full.
};

}  // namespace adam2::core
