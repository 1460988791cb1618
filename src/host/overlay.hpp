// Overlay abstraction: who can gossip with whom.
//
// The paper's system model (§III) organises peers in a P2P overlay where each
// peer maintains links to a small number of randomly selected neighbours, and
// neighbour sets change over time through gossip-based peer sampling [11].
// Concrete implementations (StaticRandomOverlay, CyclonOverlay) live in the
// sim library; this abstract seam lives in host so every substrate — and the
// shared bootstrap policy — can use an overlay without depending on sim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "host/types.hpp"
#include "host/view.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "wire/buffer.hpp"

namespace adam2::host {

class NodeTable;
class WorkerPool;

class Overlay {
 public:
  virtual ~Overlay() = default;

  /// Builds the initial topology over `ids`. Default: add nodes one by one.
  virtual void build_initial(std::span<const NodeId> ids, const HostView& host,
                             rng::Rng& rng);

  /// Wires a (new) node into the overlay using currently live peers.
  virtual void add_node(NodeId id, const HostView& host, rng::Rng& rng) = 0;

  /// Tears a departed node out of the overlay (its links become stale).
  virtual void remove_node(NodeId id) = 0;

  /// A uniformly random current neighbour to gossip with; nullopt when the
  /// node has no usable neighbour. The returned node may be dead — the engine
  /// detects that and records a failed contact, as a real system would.
  [[nodiscard]] virtual std::optional<NodeId> pick_gossip_target(
      NodeId id, rng::Rng& rng) const = 0;

  /// Current neighbour ids of `id` (for inspection and bootstrap).
  [[nodiscard]] virtual std::vector<NodeId> neighbors(NodeId id) const = 0;

  /// Attribute values of peers this node has (recently) learned about, used
  /// by the neighbour-based interpolation-point bootstrap (§V). For static
  /// overlays these are the direct neighbours' values; Cyclon additionally
  /// caches values carried by shuffled descriptors.
  [[nodiscard]] virtual std::vector<stats::Value> known_attribute_values(
      NodeId id, const HostView& host) const = 0;

  /// Per-round maintenance (e.g. Cyclon view shuffles) on the calling
  /// thread. Default: none.
  virtual void maintain(HostView& host, rng::Rng& rng);
  /// The same pass with `pool`'s workers, giving the state, draws and
  /// traffic of the one-worker pass. Default: maintain(host, rng).
  virtual void maintain(HostView& host, rng::Rng& rng, WorkerPool& pool);

  // -- Checkpoint hooks (host::snapshot, DESIGN.md §12) ----------------------
  //
  // snapshot_kind() tags the concrete overlay type inside a checkpoint so a
  // restore into a differently-configured engine is rejected instead of
  // misinterpreted (0 = stateless: nothing to save, restore is a no-op).
  // save_state/restore_state follow the NodeAgent contract: canonical
  // re-encode, bit-identical behaviour after restore.
  [[nodiscard]] virtual std::uint32_t snapshot_kind() const { return 0; }
  virtual void save_state(wire::Writer& /*out*/) const {}
  /// Throws wire::DecodeError on malformed input, including a node id that
  /// names no record of `table` (the node table restored with it).
  /// Implementations must consume the reader completely (expect_done) and
  /// commit only after the full parse succeeds, so a rejected blob leaves
  /// the overlay untouched.
  virtual void restore_state(wire::Reader& /*in*/,
                             const NodeTable& /*table*/) {}
};

}  // namespace adam2::host
