// Cyclon-style gossip-based peer sampling (Voulgaris et al.; the paper's
// reference [11] family).
//
// Each node keeps a small partial view of (id, age, attribute) descriptors.
// Once per round it shuffles with its oldest view entry: it sends a random
// subset of its view plus a fresh self-descriptor, receives a subset back,
// and installs the received descriptors preferentially over the slots it
// sent away. Dead entries are discovered through failed shuffles and evicted,
// which keeps the overlay connected under churn.
//
// Descriptors piggyback the peer's attribute value; every node additionally
// remembers the most recent `value_cache_size` values it saw, feeding the
// neighbour-based interpolation-point bootstrap (§V, §VII-B).
//
// Storage (DESIGN.md §7.5): each node with a view owns one fixed-stride
// block of a pool, holding `view_size` descriptor slots (a prefix of them in
// use, in stored order) and a ring of `value_cache_size` values. A departed
// node's block goes on a freelist that newcomers reuse, so the pool scales
// with the live nodes, not with the ids ever issued; a vector indexed by id
// maps each node to its block. The slots and rings sit on huge pages where
// the kernel offers them (host::advise_huge_pages): the walks reach them at
// random. `maintain` walks the live ids in
// host::NodeTable order, which a snapshot restores exactly, and a warmed
// `maintain` allocates nothing.
//
// Maintenance runs on host::WorkerPool::run_ordered. Each shuffle splits in
// two. The in-order decision ages the initiator's view, takes its oldest
// entry (or evicts it when dead), draws both descriptor masks from the
// global stream and records both messages' overlay traffic. The apply step
// copies the masked descriptors and installs them in both views. Every draw
// and every write happens in the one-worker order, so the views, the value
// caches and the traffic counts are the same at any worker count.
//
// The serial walk waits on memory more than it computes at large N, so it
// prefetches: each decision starts loading the view of the initiator a few
// units on, and the one-worker pool's read-only look-ahead step guesses
// the shuffle's target (the oldest entry of that view) and loads the
// target's view and both value-cache write lines before the decision needs
// them. The kernels (aging with the oldest-entry search, the membership
// scan, the masked copies) run without data-dependent branches.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "host/pool.hpp"
#include "sim/overlay.hpp"
#include "wire/messages.hpp"

namespace adam2::sim {

struct CyclonConfig {
  std::size_t view_size = 20;      ///< Partial view capacity (c), at most 64.
  std::size_t shuffle_size = 8;    ///< Descriptors exchanged per shuffle (l).
  std::size_t value_cache_size = 128;  ///< Recently seen attribute values.
};

class CyclonOverlay final : public host::Overlay {
 public:
  /// Throws std::invalid_argument unless 1 <= view_size <= 64 and
  /// 1 <= shuffle_size <= view_size.
  explicit CyclonOverlay(CyclonConfig config);

  void build_initial(std::span<const host::NodeId> ids,
                     const host::HostView& host, rng::Rng& rng) override;
  /// Gives `id` a fresh view (an empty one first, if it already had one).
  void add_node(host::NodeId id, const host::HostView& host,
                rng::Rng& rng) override;
  void remove_node(host::NodeId id) override;
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId id, rng::Rng& rng) const override;
  [[nodiscard]] std::vector<host::NodeId> neighbors(
      host::NodeId id) const override;
  /// The view's attributes in stored order, then the cached values oldest
  /// first.
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId id, const host::HostView& host) const override;
  /// One shuffle per live node, in an order shuffled from `rng`. Every live
  /// node must have a view (add_node, build_initial and restore_state keep
  /// that true); throws std::logic_error otherwise.
  void maintain(host::HostView& host, rng::Rng& rng) override;
  /// The same shuffles with `pool`'s workers: the state, draws and traffic
  /// equal those of the one-worker pass.
  void maintain(host::HostView& host, rng::Rng& rng,
                host::WorkerPool& pool) override;

  [[nodiscard]] const CyclonConfig& config() const { return config_; }

  // host::snapshot integration (DESIGN.md §12): kind 2 = Cyclon. Views are
  // encoded per node in ascending id order; each view's descriptor entries
  // keep their stored order and its value cache goes oldest first (shuffles
  // and the bootstrap consume them positionally). Restore refuses a view for
  // a node that is not live and a live node without a view.
  [[nodiscard]] std::uint32_t snapshot_kind() const override { return 2; }
  void save_state(wire::Writer& out) const override;
  void restore_state(wire::Reader& in, const host::NodeTable& table) override;

 private:
  static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

  /// Bookkeeping of one block; its slots and ring live in Pool.
  struct Block {
    std::size_t size = 0;        ///< Descriptors in use: slots [0, size).
    std::size_t cache_head = 0;  ///< Ring position of the oldest value.
    std::size_t cache_size = 0;  ///< Values in the ring.
  };

  /// Block b owns slots[b * view_size, +view_size) and
  /// ring[b * value_cache_size, +value_cache_size).
  struct Pool {
    std::vector<std::uint32_t> block_of;  // Indexed by id; kNoBlock if none.
    std::vector<Block> blocks;
    std::vector<wire::NodeDescriptor> slots;
    std::vector<stats::Value> ring;
    std::vector<std::uint32_t> free;

    /// Room for `views` blocks, the slots and ring on huge pages where the
    /// kernel offers them.
    void reserve(std::size_t views, const CyclonConfig& config);
  };

  /// A handle on one block, valid until the pool grows. Its const members
  /// may change the block: constness is the handle's, not the block's.
  struct View {
    Block& block;
    std::span<wire::NodeDescriptor> slots;
    std::span<stats::Value> ring;

    [[nodiscard]] std::span<wire::NodeDescriptor> entries() const {
      return slots.first(block.size);
    }
    [[nodiscard]] bool full() const { return block.size == slots.size(); }
    [[nodiscard]] bool contains(host::NodeId id) const;
    void push(const wire::NodeDescriptor& d) const {
      slots[block.size++] = d;
    }
    /// Removes the entry at `slot`, shifting the later ones down.
    void erase(std::size_t slot) const;
    /// Caches `value`, dropping the oldest one when the ring is full.
    void remember(stats::Value value) const;
  };

  /// Gives `id` an empty block: its own, else a freed one, else a new one.
  /// A new one may grow the pool, which invalidates every View.
  View allocate(host::NodeId id);
  [[nodiscard]] View at(std::uint32_t block);
  /// The block of `id`, or kNoBlock.
  [[nodiscard]] std::uint32_t block_of(host::NodeId id) const;
  [[nodiscard]] std::span<const wire::NodeDescriptor> entries(
      std::uint32_t block) const;
  /// The cached values of `block`, oldest first, as the ring's two runs.
  [[nodiscard]] std::array<std::span<const stats::Value>, 2> cached(
      std::uint32_t block) const;

  /// One shuffle as decided by the walk: the initiator's oldest entry, and
  /// the slots each of them sends.
  struct Shuffle {
    host::NodeId target = 0;
    std::uint64_t sent_mask = 0;  ///< Initiator slots sent to the target.
    std::uint64_t peer_mask = 0;  ///< Target slots sent back.
  };

  /// The block of live node `id`; throws std::logic_error if it has none.
  [[nodiscard]] View live_view(host::NodeId id);

  /// The in-order half of the shuffle initiated by `order_[unit]` with its
  /// oldest view entry: ages the view and, when that entry is dead, evicts
  /// it (no apply step). Otherwise draws both masks from `rng` into the
  /// unit's decision, records both messages and returns true.
  bool decide_shuffle(std::size_t unit, host::HostView& host, rng::Rng& rng,
                      host::WorkerPool::Claims& claims);
  /// One worker's copies of a shuffle's two messages, reused so that a
  /// warmed apply allocates nothing; a cache line each, since the workers
  /// write them side by side.
  struct alignas(64) Messages {
    std::vector<wire::NodeDescriptor> request;
    std::vector<wire::NodeDescriptor> response;
  };

  /// The rest of `id`'s shuffle: swaps the masked descriptors and caches
  /// their values.
  void apply_shuffle(host::NodeId id, const Shuffle& shuffle,
                     const host::HostView& host, Messages& messages);

  /// The one-worker look-ahead (WorkerPool::run_ordered's `ahead`): reads
  /// the views and only prefetches: `unit`'s node record (its attribute
  /// goes into the shuffle's self-descriptor) and, for the units a few
  /// places before `unit`, the target a decision is likely to pick and both
  /// value-cache write lines. A wrong guess wastes a prefetch and changes
  /// nothing.
  void look_ahead(std::size_t unit, const host::HostView& host) const;
  /// The oldest entry of `order_[unit]`'s view as it stands, if any.
  [[nodiscard]] std::optional<host::NodeId> guess_target(
      std::size_t unit) const;
  /// Prefetches `block`'s bookkeeping and descriptors (none for kNoBlock).
  void prefetch_view(std::uint32_t block) const;
  /// Prefetches the lines the next shuffle's remember loop writes in
  /// `block`'s value cache.
  void prefetch_ring_write(std::uint32_t block) const;

  /// Installs `received` into `view`, replacing sent-away slots (bits set in
  /// `sent_mask`) first, then filling free capacity, never duplicating ids
  /// or storing `self`.
  void install(host::NodeId self, const View& view,
               std::span<const wire::NodeDescriptor> received,
               std::uint64_t sent_mask);

  CyclonConfig config_;
  Pool pool_;
  // Scratch reused across rounds (hot path: one shuffle per node per
  // round): the walk order, and a ring of the decisions not yet applied
  // (unit u in entry u % size; WorkerPool::pending_limit).
  std::vector<host::NodeId> order_;
  std::vector<Shuffle> shuffles_;
  std::vector<Messages> messages_;  // One per worker.
};

}  // namespace adam2::sim
