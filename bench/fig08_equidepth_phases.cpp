// Figure 8: approximation error in EquiDepth over multiple phases, compared
// against Adam2 (MinMax for Errm in (a), LCut for Erra in (b)).
//
// Expected shape: EquiDepth's error is flat across phases (its bins are
// never refined), a few times worse than MinMax on Errm — especially for the
// stepped RAM CDF — and an order of magnitude worse than LCut on Erra.
#include <cstdio>

#include <string>

#include "common.hpp"

using namespace adam2;

int main() {
  const bench::BenchEnv env = bench::bench_env(10000);
  bench::open_report("fig08_equidepth_phases", env);
  bench::print_banner("Figure 8: EquiDepth over multiple phases", env);

  constexpr std::size_t kPhases = 5;
  const std::pair<const char*, data::Attribute> attributes[] = {
      {"CPU", data::Attribute::kCpuMflops},
      {"RAM", data::Attribute::kRamMb},
  };

  struct SeriesResult {
    std::string label;
    std::vector<double> max_err;
    std::vector<double> avg_err;
  };
  std::vector<SeriesResult> results;

  for (const auto& [attr_label, attribute] : attributes) {
    const auto values = bench::population(attribute, env.n, env.seed);

    baselines::EquiDepthConfig ed_config;
    ed_config.bins = 50;
    ed_config.phase_ttl = 25;
    sim::EngineConfig engine_config;
    engine_config.seed = env.seed;
    const auto ed = bench::run_equidepth_series(ed_config, engine_config,
                                                values, kPhases, env);
    SeriesResult ed_result;
    ed_result.label = std::string(attr_label) + "-EquiDepth";
    for (const auto& phase : ed) {
      ed_result.max_err.push_back(phase.entire.max_err);
      ed_result.avg_err.push_back(phase.entire.avg_err);
    }
    results.push_back(std::move(ed_result));

    for (const auto& [h_label, heuristic] :
         {std::pair{"MinMax", core::SelectionHeuristic::kMinMax},
          std::pair{"LCut", core::SelectionHeuristic::kLCut}}) {
      core::SystemConfig config = bench::default_system(env);
      config.protocol.heuristic = heuristic;
      const auto series =
          bench::run_adam2_series(config, values, kPhases, env);
      SeriesResult r;
      r.label = std::string(attr_label) + "-" + h_label;
      for (const auto& inst : series) {
        r.max_err.push_back(inst.entire.max_err);
        r.avg_err.push_back(inst.entire.avg_err);
      }
      results.push_back(std::move(r));
    }
  }

  std::vector<std::string> columns;
  for (std::size_t i = 1; i <= kPhases; ++i) {
    columns.push_back("inst" + std::to_string(i));
  }
  std::printf("\n## (a) Maximum distance (Errm) — compare *-EquiDepth vs *-MinMax\n");
  bench::print_header("series", columns);
  for (const auto& r : results) bench::print_row(r.label, r.max_err);
  std::printf("\n## (b) Average distance (Erra) — compare *-EquiDepth vs *-LCut\n");
  bench::print_header("series", columns);
  for (const auto& r : results) bench::print_row(r.label, r.avg_err);
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
