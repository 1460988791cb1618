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
#pragma once

#include <deque>
#include <unordered_map>

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
  void add_node(host::NodeId id, const host::HostView& host,
                rng::Rng& rng) override;
  void remove_node(host::NodeId id) override;
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId id, rng::Rng& rng) const override;
  [[nodiscard]] std::vector<host::NodeId> neighbors(
      host::NodeId id) const override;
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId id, const host::HostView& host) const override;
  void maintain(host::HostView& host, rng::Rng& rng) override;

  [[nodiscard]] const CyclonConfig& config() const { return config_; }

  // host::snapshot integration (DESIGN.md §12): kind 2 = Cyclon. Views are
  // encoded per node in sorted id order; each view's descriptor entries and
  // value cache keep their stored order (shuffles and the bootstrap consume
  // them positionally).
  [[nodiscard]] std::uint32_t snapshot_kind() const override { return 2; }
  void save_state(wire::Writer& out) const override;
  void restore_state(wire::Reader& in, std::size_t node_count) override;

 private:
  struct View {
    std::vector<wire::NodeDescriptor> entries;
    std::deque<stats::Value> value_cache;
  };

  /// One shuffle initiated by `id` with its oldest live view entry.
  void shuffle_once(host::NodeId id, host::HostView& host, rng::Rng& rng);

  /// Installs `received` into `view`, replacing sent-away slots (bits set in
  /// `sent_mask`) first, then filling free capacity, never duplicating ids
  /// or storing `self`.
  void install(host::NodeId self, View& view,
               std::span<const wire::NodeDescriptor> received,
               std::uint64_t sent_mask);

  void remember_values(View& view,
                       std::span<const wire::NodeDescriptor> descriptors);

  CyclonConfig config_;
  std::unordered_map<host::NodeId, View> views_;
  // Scratch messages reused across shuffles (hot path: one shuffle per node
  // per round).
  wire::ShuffleMessage request_scratch_;
  wire::ShuffleMessage response_scratch_;
};

}  // namespace adam2::sim
