// obs::Recorder — the single observability facade every substrate and bench
// consumes (DESIGN.md §11).
//
// One recorder owns the three artifacts of a run:
//   * a MetricsRegistry   — named counters/gauges/histograms unifying the
//                           TrafficStats totals, fault-fate counts and
//                           exchange-size distributions;
//   * a TraceRing         — the deterministic structured event trace;
//   * a RunManifest       — seed, engine kind, config echo, build flags.
//
// Overhead contract: engines hold a `Recorder*` that defaults to nullptr and
// guard every call site with a null check, so a run without a recorder
// makes no allocation and no record for it (micro_core's zero-alloc
// acceptance pins this). With a recorder attached, the typed record methods
// below cost a ring write plus a handful of id-indexed metric updates.
//
// Threading contract: NOT thread-safe (the lint `confinement` rule keeps
// mutexes out of obs/). The cycle engine records from the driver thread only
// — at any thread count it buffers per-unit ExchangeOutcomes in
// plan-position slots and drains them serially after the exchange phase,
// which is also what makes its trace the same at every thread count. The
// wall-clock runtimes record lifecycle events and absorb traffic snapshots
// from the controlling thread, before start() and after stop()/joins.
#pragma once

#include <cstdint>
#include <string_view>

#include "host/traffic.hpp"
#include "host/types.hpp"
#include "obs/events.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace adam2::obs {

struct RecorderConfig {
  /// Record a kExchange trace event per initiated exchange. Metrics are
  /// always updated; turning this off keeps long runs inside the ring.
  bool trace_exchanges = true;
};

class Recorder {
 public:
  explicit Recorder(RecorderConfig config = {});

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceRing& trace() { return trace_; }
  [[nodiscard]] const TraceRing& trace() const { return trace_; }
  [[nodiscard]] RunManifest& manifest() { return manifest_; }
  [[nodiscard]] const RunManifest& manifest() const { return manifest_; }

  // -- Typed record methods (engine hook points) ---------------------------

  /// Substrate attached/started. Also fills the manifest's engine kind when
  /// it is still empty.
  void engine_start(std::string_view kind, host::Round round,
                    std::size_t nodes);
  void engine_stop(host::Round round);

  void round_begin(host::Round round, std::size_t live);

  /// End of a round/cycle: traces the event, refreshes the round gauges and
  /// absorbs `totals` into the traffic counters.
  void round_end(host::Round round, std::size_t live, std::size_t nodes_ever,
                 const host::TrafficStats& totals);

  /// One initiated exchange (cycle engines: in plan order).
  void exchange(host::Round round, const ExchangeOutcome& outcome);

  void crash_restart(host::Round round, host::NodeId node);
  void node_join(host::Round round, host::NodeId node);
  void node_depart(host::Round round, host::NodeId node);
  void instance_start(host::Round round, host::NodeId initiator,
                      std::uint64_t instance);
  void instance_end(host::Round round, host::NodeId initiator,
                    std::uint64_t instance);

  /// Absorbs a TrafficStats snapshot into the traffic.* counters (set, not
  /// add: the snapshot is already a monotonic total). The wall-clock
  /// runtimes call this after stop(); the cycle engines via round_end.
  void set_traffic(const host::TrafficStats& totals);

 private:
  void push(TraceEvent event) { trace_.push(event); }

  RecorderConfig config_;
  MetricsRegistry metrics_;
  TraceRing trace_;
  RunManifest manifest_;

  // Cached metric ids (registered in the constructor, so every recorder
  // exports the same schema in the same order).
  struct ChannelIds {
    MetricsRegistry::Id messages_sent, bytes_sent, messages_received,
        bytes_received;
  };
  ChannelIds channel_ids_[host::kChannelCount];
  MetricsRegistry::Id failed_contacts_, dropped_, busy_, duplicated_,
      corrupted_, partitioned_, delayed_, crash_restarts_, rejected_;
  MetricsRegistry::Id round_gauge_, live_gauge_, nodes_ever_gauge_;
  MetricsRegistry::Id exchange_status_[7];
  MetricsRegistry::Id request_bytes_hist_, response_bytes_hist_;
};

}  // namespace adam2::obs
