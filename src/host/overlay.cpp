#include "host/overlay.hpp"

namespace adam2::host {

void Overlay::build_initial(std::span<const NodeId> ids, const HostView& host,
                            rng::Rng& rng) {
  for (NodeId id : ids) add_node(id, host, rng);
}

void Overlay::maintain(HostView& /*host*/, rng::Rng& /*rng*/) {}

void Overlay::maintain(HostView& host, rng::Rng& rng, WorkerPool& /*pool*/) {
  maintain(host, rng);
}

}  // namespace adam2::host
