// Figure 6: approximation accuracy over one aggregation instance (RAM).
//
// (a) Adam2: per-round max/avg error at the interpolation points and over
//     the entire CDF. The error starts at 1 while the instance spreads,
//     then the point error decays exponentially towards rounding noise,
//     while the entire-CDF error floors at the interpolation error.
// (b) EquiDepth in identical settings: the bin error never improves.
#include <cstdio>

#include "baselines/equidepth.hpp"
#include <string>

#include "common.hpp"
#include "core/evaluation.hpp"

using namespace adam2;

namespace {

constexpr std::size_t kRounds = 80;

void run_adam2(const bench::BenchEnv& env,
               const std::vector<stats::Value>& values,
               const stats::EmpiricalCdf& truth) {
  core::SystemConfig config = bench::default_system(env);
  config.protocol.instance_ttl = kRounds + 2;  // Keep it alive for the plot.
  core::Adam2System system(config, values);
  system.run_rounds(5);
  const auto id = system.start_instance();

  std::printf("\n## (a) Adam2, single instance, RAM\n");
  bench::print_header("round", {"max_points", "avg_points", "max_entire",
                                "avg_entire"});
  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  for (std::size_t round = 1; round <= kRounds; ++round) {
    system.run_rounds(1);
    const auto points =
        core::evaluate_instance_points(system.engine(), id, truth, options);
    const auto entire =
        core::evaluate_instance_cdf(system.engine(), id, truth, options);
    bench::print_row(std::to_string(round),
                     {points.max_err, points.avg_err, entire.max_err,
                      entire.avg_err});
  }
}

void run_equidepth(const bench::BenchEnv& env,
                   const std::vector<stats::Value>& values,
                   const stats::EmpiricalCdf& truth) {
  baselines::EquiDepthConfig config;
  config.bins = 50;
  config.phase_ttl = kRounds + 2;
  sim::EngineConfig engine_config;
  engine_config.seed = env.seed;
  sim::CycleEngine engine(
      engine_config, values, core::make_overlay(core::OverlayKind::kCyclon, 20),
      [config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(config);
      },
      nullptr);
  engine.run_rounds(5);
  const auto initiator = engine.random_live_node();
  auto ctx = engine.context_for(initiator);
  const auto phase =
      dynamic_cast<baselines::EquiDepthAgent&>(engine.agent(initiator))
          .start_phase(ctx);

  std::printf("\n## (b) EquiDepth, single phase, RAM\n");
  bench::print_header("round",
                      {"max_bins", "avg_bins", "max_entire", "avg_entire"});
  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  for (std::size_t round = 1; round <= kRounds; ++round) {
    engine.run_rounds(1);
    const auto bins = baselines::evaluate_equidepth_phase_points(
        engine, phase, truth, options);
    const auto entire =
        baselines::evaluate_equidepth_phase_cdf(engine, phase, truth, options);
    bench::print_row(std::to_string(round),
                     {bins.max_err, bins.avg_err, entire.max_err,
                      entire.avg_err});
  }
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  bench::open_report("fig06_single_instance", env);
  bench::print_banner(
      "Figure 6: approximation accuracy over one aggregation instance (RAM)",
      env);
  const auto values = bench::population(data::Attribute::kRamMb, env.n, env.seed);
  const stats::EmpiricalCdf truth{values};
  run_adam2(env, values, truth);
  run_equidepth(env, values, truth);
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
