// Metrics registry: named counters, gauges and histograms with stable
// integer ids (DESIGN.md §11).
//
// The registry unifies what used to be three ad-hoc ledgers — the engines'
// host::TrafficStats totals, the wall-clock runtime's runtime::Directory
// totals, and the benches' report_metric() scalars — behind one name → value
// map that every exporter understands. Registration order defines the id and
// the export order, so two runs that register the same metrics in the same
// order produce byte-identical snapshots.
//
// Not thread-safe by design: the lint `confinement` rule keeps concurrency
// primitives out of obs/, so the threaded runtimes funnel all recording
// through their driver thread (see DESIGN.md §11 "who records what").
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace adam2::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    ///< Monotonic uint64 (messages, bytes, fault fates).
  kGauge,      ///< Last-written double (live nodes, current round).
  kHistogram,  ///< Bucketed samples with count and sum (payload sizes).
};

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// One registered metric. For counters `count` holds the value; for gauges
/// `value` does; histograms use `count` (samples), `value` (sum), `bounds`
/// (upper bucket edges) and `buckets` (bounds.size() + 1 tallies, the last
/// one catching samples above every bound).
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

class MetricsRegistry {
 public:
  /// Stable handle: the metric's registration index. Hot-path updates go
  /// through ids so the name lookup happens once, at registration.
  using Id = std::uint32_t;

  /// Find-or-create. Re-registering an existing name returns the same id;
  /// registering it under a different kind throws std::logic_error.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name, std::span<const double> bounds);

  void add(Id id, std::uint64_t delta = 1);     ///< Counter increment.
  void set_counter(Id id, std::uint64_t value); ///< Absorb an external total.
  void set(Id id, double value);                ///< Gauge write.
  void observe(Id id, double sample);           ///< Histogram sample.

  /// All metrics in registration (= export) order.
  [[nodiscard]] std::span<const Metric> metrics() const { return metrics_; }

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const Metric* find(std::string_view name) const;

  /// Convenience readers (0 when the name is absent).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

 private:
  Id intern(std::string_view name, MetricKind kind);
  Metric& checked(Id id, MetricKind kind);

  std::vector<Metric> metrics_;
  std::map<std::string, Id, std::less<>> index_;
};

}  // namespace adam2::obs
