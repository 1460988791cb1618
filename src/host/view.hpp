// The narrow interface substrate components may call back into. Every
// agent-hosting substrate (cycle-driven or event-driven simulator, threaded
// cluster, UDP peer directory) implements this seam; overlays, agents and the
// evaluation layer never see anything wider.
#pragma once

#include <cstddef>
#include <span>

#include "host/types.hpp"
#include "stats/cdf.hpp"

namespace adam2::host {

class HostView {
 public:
  virtual ~HostView() = default;

  [[nodiscard]] virtual bool is_live(NodeId id) const = 0;
  [[nodiscard]] virtual stats::Value attribute_of(NodeId id) const = 0;
  [[nodiscard]] virtual Round round() const = 0;
  [[nodiscard]] virtual std::span<const NodeId> live_ids() const = 0;

  /// Records one message of `bytes` bytes on `channel`, counted as both
  /// sent and received.
  virtual void record_traffic(Channel channel, std::size_t bytes) = 0;

  /// A hint with no effect on behaviour: starts loading what
  /// attribute_of(id) reads. The default does nothing.
  virtual void prefetch_node(NodeId /*id*/) const {}
};

}  // namespace adam2::host
