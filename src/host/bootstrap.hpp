// Join-time state transfer shared by every substrate (§IV: joining nodes are
// bootstrapped by their initial neighbours; DESIGN §1 decision 4).
#pragma once

#include "host/node.hpp"
#include "host/overlay.hpp"
#include "host/registry.hpp"
#include "host/traffic.hpp"
#include "host/view.hpp"

namespace adam2::host {

/// A joiner keeps asking neighbours until one supplies a usable state or
/// this many attempts fail — a dead contact or a neighbour that churned in
/// moments ago and has nothing yet must not leave the newcomer permanently
/// uninitialised.
inline constexpr int kBootstrapAttempts = 4;

/// Runs the bootstrap retry loop for a freshly spawned `joiner` that is
/// already wired into `overlay`. Contact picks come from the joiner's control
/// stream; failed contacts and the transferred bytes (bootstrap channel)
/// count into `totals`; `host` only backs the agent contexts. No-op when the
/// joiner's agent declines to bootstrap (empty request).
void bootstrap_joiner(Node& joiner, NodeTable& table, Overlay& overlay,
                      HostView& host, Round round, TrafficStats& totals);

}  // namespace adam2::host
