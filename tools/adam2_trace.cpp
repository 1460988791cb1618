// adam2_trace — generate, inspect, and clean host-trace CSVs.
//
//   adam2_trace generate --nodes 100000 --seed 7 --out hosts.csv
//   adam2_trace stats --in hosts.csv
//   adam2_trace clean --in raw.csv --out hosts.csv
//
// `stats` prints per-attribute summaries (min/max, quartiles, distinct
// values, largest single-value probability mass) — handy for checking that a
// real trace has the smooth-vs-stepped shapes the experiments care about.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "data/boinc_synth.hpp"
#include "data/trace.hpp"
#include "options.hpp"
#include "stats/cdf.hpp"

using namespace adam2;

namespace {

constexpr char kUsage[] = R"(usage: adam2_trace <generate|stats|clean> [flags]
  generate: --nodes N (default 10000), --seed S, --out FILE (default stdout path required)
  stats:    --in FILE
  clean:    --in FILE --out FILE       (drops faulty readings)
)";

void print_stats(const std::vector<data::HostRecord>& records) {
  std::printf("%zu hosts\n", records.size());
  std::printf("%-16s %10s %10s %10s %10s %10s %9s %9s\n", "attribute", "min",
              "p25", "median", "p75", "max", "distinct", "max_step");
  for (data::Attribute attribute : data::kAllAttributes) {
    const auto column = data::attribute_column(records, attribute);
    if (column.empty()) continue;
    const stats::EmpiricalCdf cdf{column};
    const auto fractions = cdf.cumulative_fractions();
    double max_step = fractions[0];
    for (std::size_t i = 1; i < fractions.size(); ++i) {
      max_step = std::max(max_step, fractions[i] - fractions[i - 1]);
    }
    std::printf("%-16s %10lld %10lld %10lld %10lld %10lld %9zu %8.1f%%\n",
                std::string(data::attribute_name(attribute)).c_str(),
                static_cast<long long>(cdf.min()),
                static_cast<long long>(cdf.quantile(0.25)),
                static_cast<long long>(cdf.quantile(0.5)),
                static_cast<long long>(cdf.quantile(0.75)),
                static_cast<long long>(cdf.max()),
                cdf.distinct_values().size(), max_step * 100.0);
  }
}

int run(const tools::Options& flags) {
  if (flags.has("help") || flags.positional().empty()) {
    std::fputs(kUsage, stdout);
    return flags.positional().empty() ? 1 : 0;
  }
  const std::string command = flags.positional().front();

  if (command == "generate") {
    const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 10000));
    rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 42)));
    const std::string out = flags.get("out", "");
    flags.reject_unknown();
    if (out.empty()) throw std::invalid_argument("generate needs --out FILE");
    data::save_trace(out, data::synthesize_trace(nodes, rng));
    std::printf("wrote %zu hosts to %s\n", nodes, out.c_str());
    return 0;
  }
  if (command == "stats") {
    const std::string in = flags.get("in", "");
    flags.reject_unknown();
    if (in.empty()) throw std::invalid_argument("stats needs --in FILE");
    print_stats(data::load_trace(in));
    return 0;
  }
  if (command == "clean") {
    const std::string in = flags.get("in", "");
    const std::string out = flags.get("out", "");
    flags.reject_unknown();
    if (in.empty() || out.empty()) {
      throw std::invalid_argument("clean needs --in FILE and --out FILE");
    }
    auto records = data::load_trace(in);
    const std::size_t before = records.size();
    records = data::filter_faulty(std::move(records));
    data::save_trace(out, records);
    std::printf("kept %zu of %zu hosts (%zu faulty dropped)\n", records.size(),
                before, before - records.size());
    return 0;
  }
  throw std::invalid_argument("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(tools::Options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "adam2_trace: %s\n", error.what());
    std::fputs(kUsage, stderr);
    return 1;
  }
}
