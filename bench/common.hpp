// Shared scaffolding for the per-figure bench binaries.
//
// Every bench reads its scale from the environment:
//   ADAM2_BENCH_N=<nodes>     population size (default 20,000)
//   ADAM2_BENCH_FULL=1        paper scale (100,000 nodes)
//   ADAM2_BENCH_SEED=<s>      master seed (default 42)
//   ADAM2_BENCH_THREADS=<t>   worker threads: cycle engine AND sharded
//                             population evaluation (default serial)
//   ADAM2_BENCH_JSON=<dir>    also write a machine-readable report to
//                             <dir>/BENCH_<name>.json — per-phase wall-clock
//                             seconds, bytes exchanged, and every printed
//                             series (Errm/Erra columns included)
// and prints the corresponding figure's series as aligned text columns.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/equidepth.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "host/fault.hpp"
#include "obs/recorder.hpp"
#include "stats/cdf.hpp"

namespace adam2::bench {

struct BenchEnv {
  std::size_t n = 20000;
  std::uint64_t seed = 42;
  /// Peers sampled per evaluation (0 = all); keeps wide sweeps tractable.
  std::size_t peer_sample = 400;
  /// Cycle-engine worker threads (0/1 = one inline worker; >1 = sharded).
  std::size_t threads = 0;
  /// Deterministic fault schedule from ADAM2_BENCH_FAULT_* (same names as
  /// adam2_sim's --fault-* flags; default all-zero = off). Applied by
  /// default_system().
  host::FaultPlan faults;
};

/// Parses the ADAM2_BENCH_* environment variables.
[[nodiscard]] BenchEnv bench_env(std::size_t default_n = 20000);

/// Synthetic population of `n` values for `kind`, deterministic in `seed`.
[[nodiscard]] std::vector<stats::Value> population(data::Attribute kind,
                                                   std::size_t n,
                                                   std::uint64_t seed);

/// Prints "# <title>" plus the environment banner.
void print_banner(const std::string& title, const BenchEnv& env);

/// Prints one aligned row of label + numeric columns.
void print_row(const std::string& label, const std::vector<double>& values);
void print_header(const std::string& label,
                  const std::vector<std::string>& columns);

// -- Machine-readable report (ADAM2_BENCH_JSON) -----------------------------
//
// open_report(name, env) arms the report; from then on print_header starts a
// mirrored series and print_row appends to it, so benches get their printed
// Errm/Erra columns into the JSON for free. PhaseTimer accumulates wall-clock
// seconds per named phase (the series drivers below time their gossip and
// evaluation phases automatically), report_metric accumulates named scalars
// (bytes exchanged, speedups, ...). emit_json() writes
// $ADAM2_BENCH_JSON/BENCH_<name>.json and is a no-op when the variable is
// unset, so benches call it unconditionally.

/// Arms the report for this bench run. `name` becomes BENCH_<name>.json.
void open_report(const std::string& name, const BenchEnv& env);

/// Adds `value` to the named scalar metric (starting from zero).
void report_metric(const std::string& key, double value);

/// Writes the report if open_report() ran and ADAM2_BENCH_JSON is set.
/// Also writes the run manifest (MANIFEST_<name>.json) and a metrics
/// snapshot (METRICS_<name>.json) next to it. Every file is written to a
/// temp name, fsynced and atomically renamed into place, so a crashed or
/// interrupted bench never leaves a truncated report behind.
/// Returns the BENCH_<name>.json path written, or empty when disabled.
std::string emit_json();

/// The report's observability recorder: armed by open_report(), attached to
/// the engines the series drivers below build, exported by emit_json().
/// Null before open_report() — benches that drive engines directly can
/// attach it themselves.
[[nodiscard]] obs::Recorder* report_recorder();

/// Accumulates wall-clock seconds into the report's named phase (RAII).
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::string phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Result of one Adam2 aggregation instance in a multi-instance series.
struct InstanceResult {
  stats::ErrorPair entire;     ///< Errm / Erra over the whole domain.
  stats::ErrorPair at_points;  ///< Errors at the interpolation points.
};

/// Runs `instances` consecutive scripted Adam2 instances on a fresh system
/// and evaluates after each one. Later instances refine the interpolation
/// points of earlier ones exactly as in §V.
[[nodiscard]] std::vector<InstanceResult> run_adam2_series(
    const core::SystemConfig& config, const std::vector<stats::Value>& values,
    std::size_t instances, const BenchEnv& env,
    host::AttributeSource churn_source = nullptr);

/// Same driver for the EquiDepth baseline phases.
[[nodiscard]] std::vector<InstanceResult> run_equidepth_series(
    const baselines::EquiDepthConfig& config, const sim::EngineConfig& engine,
    const std::vector<stats::Value>& values, std::size_t phases,
    const BenchEnv& env, host::AttributeSource churn_source = nullptr);

/// Default system configuration shared by the benches (paper defaults:
/// lambda = 50, ttl = 25, MinMax + neighbour bootstrap, Cyclon overlay).
[[nodiscard]] core::SystemConfig default_system(const BenchEnv& env);

/// Attribute source drawing fresh values of `kind` (churn replacements).
[[nodiscard]] host::AttributeSource churn_source(data::Attribute kind);

/// Peak resident set size of this process in MiB (Linux VmHWM; 0.0 where
/// the platform has no cheap equivalent). Monotone over the process
/// lifetime, so ascending-size sweeps read it after each row.
[[nodiscard]] double peak_rss_mb();

}  // namespace adam2::bench
