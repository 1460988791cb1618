#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

/// Reads a "<key> <n> kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  char format[64];
  std::snprintf(format, sizeof format, "%s %%llu kB", key);
  while (std::fgets(line, sizeof line, status) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, format, &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double peak_rss_mb() { return status_mb("VmHWM:"); }
double current_rss_mb() { return status_mb("VmRSS:"); }

ProcessTimes process_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return ProcessTimes{secs(usage.ru_utime) + secs(usage.ru_stime),
                      static_cast<std::uint64_t>(usage.ru_minflt)};
}

}  // namespace perfbench
