// The traced run's per-layer measurements.
//
// At each probe round the traced run
//   1. runs the engine round with process counters around it (sim.*,
//      mem.allocs_per_round, mem.minor_faults_per_round);
//   2. saves a snapshot of the engine (host::snapshot);
//   3. times the read-only entry points (registry lookups, overlay reads) on
//      the live state;
//   4. restores the snapshot into a probe copy of the system and times the
//      calls that change state there — overlay maintenance, agent round
//      start, each exchange stage (core Adam2Agent, wire, host Conduit),
//      instance starts, churn — then drops the copy.
// One span per call, or one per batch for calls shorter than the clock's own
// cost. The measured run is never written to, so the traced run's final
// state digest equals the untraced run's. Each probe checks this itself: it
// hashes a second snapshot of the live engine after its calls and compares
// it with the first. (Restoring into the measured run
// itself would not do: under churn a restore changes the rest of the run,
// because CyclonOverlay::maintain walks its views in hash-map order and
// restore_state rebuilds that map in sorted id order.)
//
// Spans stay in memory; write_spans() dumps them when the run ends. Each
// per-layer metric is the median over probes of that probe's per-call mean.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"

namespace perfbench {

/// Where and on what one probe runs.
struct ProbeSite {
  core::Adam2System* system = nullptr;
  /// The measured system's configuration and churn source, to build the
  /// probe copy with.
  core::SystemConfig config;
  host::AttributeSource churn_source;
  std::size_t workers = 1;
  /// The scripted instance in flight, if any (its in-flight points feed the
  /// stats probe on nodes without a completed estimate).
  std::optional<wire::InstanceId> instance;
  /// Peers the workload replaces per round (churn), for sim.coverage.
  double churn_per_round = 0.0;
  std::uint64_t seed = 0;
  /// Makes each probe replace one live peer of the measured system, so the
  /// benchmark's tests can show that the state check catches a write.
  bool write_live = false;
};

class LayerTrace {
 public:
  /// Runs one engine round with CPU, page-fault and allocation counters
  /// around it and records the round-level samples.
  void measured_round(const ProbeSite& site);

  /// Probes the state the last measured_round left (see above).
  void probe(const ProbeSite& site);

  /// Records an exact counter (ledger, digest): reported as is.
  void set_exact(const std::string& name, double value, const std::string& unit);
  /// Records one sample of a derived per-layer value (median over probes);
  /// nullopt records that this probe had nothing to measure.
  void add_sample(const std::string& name, std::optional<double> value,
                  const std::string& unit);

  [[nodiscard]] std::uint32_t probe_count() const { return probes_; }
  /// Whether every probe left the measured engine's snapshot unchanged.
  [[nodiscard]] bool probes_left_state_intact() const { return intact_; }

  /// Every per-layer metric: medians of the sampled ones (0 when no probe
  /// measured it), then the exact ones.
  [[nodiscard]] std::vector<Metric> metrics() const;

  /// Writes the recorded spans as TSV (name, probe, start_ns, duration_ns,
  /// calls). Returns false when the file cannot be written.
  bool write_spans(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;  ///< Index into span_names_.
    std::uint32_t probe = 0;
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    std::uint64_t calls = 1;
  };
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };

  /// Times `fn` as one span covering `calls` calls of `name`.
  template <typename Fn>
  double span(std::uint32_t name, std::uint64_t calls, Fn&& fn);
  [[nodiscard]] std::uint32_t span_id(const std::string& name);
  /// Per-call mean in ns of span `name` within the current probe; nullopt
  /// when the probe made no such call (e.g. no sampled peer had a request
  /// to send).
  [[nodiscard]] std::optional<double> mean_ns(std::uint32_t name) const;

  std::vector<std::string> span_names_;
  std::vector<Span> spans_;
  std::size_t probe_first_span_ = 0;  ///< First span of the current probe.
  std::uint32_t probes_ = 0;
  Clock::time_point origin_ = Clock::now();
  double last_round_s_ = 0.0;
  bool intact_ = true;
  std::vector<Series> samples_;
  std::vector<Metric> exact_;
};

}  // namespace perfbench
