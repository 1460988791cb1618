// The benchmark's workloads and the code that runs one of them.
//
// A run has three parts:
//   1. input generation — the attribute population, from the seed;
//   2. set-up — Adam2System construction plus warm-up rounds, repeated
//      for half as long as the measurement runs (the median is `setup_s`;
//      the last system is kept);
//   3. measurement — epochs of the workload's script, round by round, until
//      the time budget is spent and at least one epoch has run; a run stops
//      only where the script starts a new instance. Correctness
//      checks, the ledger counters and the state digest are taken over the
//      first epoch only, so they are exact functions of (workload, seed).
//
// With tracing on, the same script runs with probe-and-restore steps at the
// workload's probe rounds (probe.hpp); the state digest must not change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"
#include "data/attribute.hpp"
#include "host/fault.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t nodes = 0;
  data::Attribute attribute = data::Attribute::kRamMb;
  /// Cycle-engine workers; capped at the machine's hardware threads.
  std::size_t threads = 1;
  double churn_rate = 0.0;
  host::FaultPlan faults;
  /// The script: one instance starts on a random peer every `start_every`
  /// rounds; an epoch is `epoch_rounds` rounds.
  std::size_t start_every = 26;
  std::size_t epoch_rounds = 26;
  /// The first epoch is checked every `check_every` rounds.
  std::size_t check_every = 26;
  std::size_t verification_points = 0;
  /// Rounds of each epoch after which the traced run probes the layers.
  std::vector<std::size_t> probe_rounds;
  /// Workload whose state digest this one must reproduce (same seed and
  /// size), when its digest is on record.
  std::string digest_peer;

  // Correctness tolerances.
  double max_errm = 1.0;
  double max_erra = 1.0;
  /// Band for the median N estimate over the live N.
  double n_ratio_min = 0.95;
  double n_ratio_max = 1.05;
};

/// All workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for state digests shared between runs of one build
  /// (empty: no cross-run digest checks).
  std::string state_dir;
  /// Name of a correctness check to break on purpose (one of
  /// kSabotageChecks): the benchmark's own tests use it to show that a
  /// failed check fails the command.
  std::string sabotage;
};

/// Checks --sabotage can break: the Errm and Erra tolerances, the N-estimate
/// band and the estimate-shape check by inverting them; "probe_write" makes
/// each traced probe write to the measured state, which the traced run's
/// state check must catch.
inline constexpr const char* kSabotageChecks[] = {"errm", "erra", "n_estimate",
                                                  "monotone", "probe_write"};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< Peers evaluated.
  std::uint64_t failed = 0;     ///< Evaluated peers without a usable estimate.
  std::vector<Metric> metrics;
};

/// Runs one workload; prints progress and check lines prefixed with "# ".
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
