// Figure 10: influence of the number of interpolation points on accuracy.
//
// Errm (a, MinMax vs EquiDepth) and Erra (b, LCut vs EquiDepth) after 4
// instances/phases, sweeping lambda (bins) from 10 to 100. Expected shape:
// more points bring better accuracy; Adam2 outperforms EquiDepth at every
// budget; ~50 points give Errm ~2% (MinMax) and Erra ~0.1% (LCut).
#include <cstdio>

#include <string>

#include "common.hpp"

using namespace adam2;

int main() {
  const bench::BenchEnv env = bench::bench_env(5000);
  bench::open_report("fig10_interpolation_points", env);
  bench::print_banner(
      "Figure 10: influence of the number of interpolation points", env);

  constexpr std::size_t kInstances = 4;
  const std::pair<const char*, data::Attribute> attributes[] = {
      {"CPU", data::Attribute::kCpuMflops},
      {"RAM", data::Attribute::kRamMb},
  };

  bench::print_header("points", {"CPU_MinMax_Em", "RAM_MinMax_Em",
                                 "CPU_LCut_Ea", "RAM_LCut_Ea",
                                 "CPU_ED_Em", "RAM_ED_Em", "CPU_ED_Ea",
                                 "RAM_ED_Ea"});

  for (std::size_t lambda = 10; lambda <= 100; lambda += 10) {
    std::vector<double> row;
    double ed_em[2];
    double ed_ea[2];
    double minmax_em[2];
    double lcut_ea[2];
    int idx = 0;
    for (const auto& [attr_label, attribute] : attributes) {
      const auto values = bench::population(attribute, env.n, env.seed);

      core::SystemConfig mm = bench::default_system(env);
      mm.protocol.lambda = lambda;
      mm.protocol.heuristic = core::SelectionHeuristic::kMinMax;
      minmax_em[idx] =
          bench::run_adam2_series(mm, values, kInstances, env).back()
              .entire.max_err;

      core::SystemConfig lc = bench::default_system(env);
      lc.protocol.lambda = lambda;
      lc.protocol.heuristic = core::SelectionHeuristic::kLCut;
      lcut_ea[idx] =
          bench::run_adam2_series(lc, values, kInstances, env).back()
              .entire.avg_err;

      baselines::EquiDepthConfig ed;
      ed.bins = lambda;
      sim::EngineConfig engine_config;
      engine_config.seed = env.seed;
      const auto ed_result = bench::run_equidepth_series(
          ed, engine_config, values, kInstances, env);
      ed_em[idx] = ed_result.back().entire.max_err;
      ed_ea[idx] = ed_result.back().entire.avg_err;
      ++idx;
    }
    bench::print_row(std::to_string(lambda),
                     {minmax_em[0], minmax_em[1], lcut_ea[0], lcut_ea[1],
                      ed_em[0], ed_em[1], ed_ea[0], ed_ea[1]});
  }
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
