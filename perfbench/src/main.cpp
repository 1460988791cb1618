// adam2_perfbench: runs one benchmark workload and prints, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   adam2_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--nodes <n>] [--state-dir <dir>] [--sabotage <check>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --nodes overrides the workload's size (the benchmark's own tests run the
// workloads small). The exit code is 0 only when every correctness check
// passed; usage errors exit 2 without a result line.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>

#include "workload.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "adam2_perfbench: %s\nusage: adam2_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--nodes <n>] "
               "[--state-dir <dir>] [--sabotage <check>]\nworkloads:",
               message);
  for (const perfbench::WorkloadSpec& spec : perfbench::workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\nchecks:");
  for (const char* check : perfbench::kSabotageChecks) {
    std::fprintf(stderr, " %s", check);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Whole-string unsigned parse; false on junk or overflow.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  std::uint64_t nodes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number)) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--nodes" && parse_u64(value, number) && number > 1) {
      nodes = number;
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else if (flag == "--sabotage" &&
               std::find(std::begin(perfbench::kSabotageChecks),
                         std::end(perfbench::kSabotageChecks),
                         value) != std::end(perfbench::kSabotageChecks)) {
      options.sabotage = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  options.spec = *spec;
  if (nodes != 0) options.spec.nodes = nodes;

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adam2_perfbench: run failed: %s\n", e.what());
    return 1;
  }

  // A metric that is not a finite number cannot be reported as measured.
  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "adam2_perfbench: %s is not finite\n",
                   m.name.c_str());
      m.value = 0.0;
      result.correct = false;
    }
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
