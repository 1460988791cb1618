// Per-peer state of one aggregation instance and its merge rules (§IV).
//
// For each threshold t_i the peer tracks the running average f_i, entered as
// the indicator [A(p) <= t_i]; the push-pull averages drive every f_i to the
// global fraction F(t_i). The same averaging runs over the weight w (1 at
// the initiator, 0 elsewhere) whose converged mean is 1/N, and over the
// verification points V. Extremes are merged with min/max instead of
// averaging.
#pragma once

#include <functional>
#include <vector>

#include "stats/cdf.hpp"
#include "wire/ids.hpp"
#include "wire/messages.hpp"

namespace adam2::core {

/// Computes a node's initial (pre-averaging) value for threshold `t`.
/// Single-value nodes contribute the indicator [A(p) <= t]; the multi-value
/// extension (§IV) contributes |{a in A(p) : a <= t}|.
using ContributionFn = std::function<double(double t)>;

/// The per-peer state of one instance is exactly what travels on the wire
/// (wire::InstancePayload: id, start_round, ttl, weight, extremes, H, V), so
/// the state *is* a payload — gossip messages are encoded straight from it
/// with no intermediate copies.
struct InstanceState : wire::InstancePayload {
  /// Initiator-side construction: weight 1, own contributions at the chosen
  /// thresholds, own extremes.
  [[nodiscard]] static InstanceState start(
      wire::InstanceId id, wire::Round round, std::uint16_t ttl,
      const std::vector<double>& thresholds,
      const std::vector<double>& verification_thresholds,
      const ContributionFn& contribution, double local_min, double local_max);

  /// Joiner-side construction from a received payload: weight 0, own
  /// contributions at the payload's thresholds, own extremes.
  [[nodiscard]] static InstanceState join(const wire::InstancePayload& payload,
                                          const ContributionFn& contribution,
                                          double local_min, double local_max);

  /// Wire view of the current state (identity — kept for readability).
  [[nodiscard]] const wire::InstancePayload& to_payload() const {
    return *this;
  }

  /// The symmetric merge of §IV: element-wise averaging of every f and the
  /// weight, min/max of the extremes. The payload must belong to the same
  /// instance and carry identical thresholds (point_ops::same_thresholds);
  /// merging misaligned series would read or write out of bounds.
  void average_with(const wire::InstancePayload& other);

  /// Scratch mark used by Adam2Agent::handle_request to remember which
  /// active instances the current request mentioned, making the
  /// "instances the requester did not mention" reply pass linear instead of
  /// O(active x incoming). Not protocol state; never serialised.
  std::uint64_t touched_epoch = 0;
};

}  // namespace adam2::core
