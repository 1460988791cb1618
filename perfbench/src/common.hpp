// Shared helpers of the repository benchmark: clocks, medians, process
// counters (RSS, CPU time, page faults) and the named-metric record that
// main() prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace adam2::core {}
namespace adam2::data {}
namespace adam2::host {}
namespace adam2::rng {}
namespace adam2::sim {}
namespace adam2::stats {}
namespace adam2::wire {}

namespace perfbench {

// The library's layers, by their module names.
namespace core = adam2::core;
namespace data = adam2::data;
namespace host = adam2::host;
namespace rng = adam2::rng;
namespace sim = adam2::sim;
namespace stats = adam2::stats;
namespace wire = adam2::wire;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Linux VmHWM / VmRSS of this process in MiB (0 where unavailable).
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();

/// getrusage(RUSAGE_SELF) totals: user + system CPU seconds over all threads
/// and minor page faults.
struct ProcessTimes {
  double cpu_s = 0.0;
  std::uint64_t minor_faults = 0;
};
[[nodiscard]] ProcessTimes process_times();

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
