// Overlay abstraction: who can gossip with whom.
//
// The abstract Overlay and the HostView seam live in the host substrate
// library (host/overlay.hpp, host/view.hpp). Two concrete overlays are
// provided here, matching the paper's system model (§III):
//
//  * StaticRandomOverlay — a fixed random graph (the controlled setting for
//    convergence experiments without churn);
//  * CyclonOverlay (sim/cyclon.hpp) — a Cyclon-style peer-sampling service
//    whose descriptors piggyback attribute values, which also feeds the
//    neighbour-based bootstrap of §V/§VII-B.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "host/overlay.hpp"
#include "host/view.hpp"
#include "rng/rng.hpp"
#include "host/types.hpp"
#include "stats/cdf.hpp"

namespace adam2::sim {

/// Fixed random graph of target degree `degree`. Links are bidirectional;
/// churned-in nodes link to `degree` random live peers.
class StaticRandomOverlay final : public host::Overlay {
 public:
  /// Throws std::invalid_argument unless degree >= 1.
  explicit StaticRandomOverlay(std::size_t degree);

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

  // host::snapshot integration (DESIGN.md §12): kind 1 = static random
  // graph. Links are encoded per node in id order, each node's neighbour
  // list in stored order (pick_gossip_target indexes into it).
  [[nodiscard]] std::uint32_t snapshot_kind() const override { return 1; }
  void save_state(wire::Writer& out) const override;
  void restore_state(wire::Reader& in, const host::NodeTable& table) override;

 private:
  /// A node's entry, joined from add_node, build_initial or a link to it
  /// until remove_node. save_state writes every joined node, including one
  /// with no links left.
  struct Links {
    bool joined = false;
    std::vector<host::NodeId> out;
  };

  /// Joins `id` (growing links_ to hold it) and returns its entry.
  Links& join(host::NodeId id);
  /// The neighbour list of `id`; empty when `id` is not joined.
  [[nodiscard]] std::span<const host::NodeId> out_of(host::NodeId id) const;
  void link(host::NodeId a, host::NodeId b);

  std::size_t degree_;
  std::vector<Links> links_;  // Indexed by id.
};

}  // namespace adam2::sim
