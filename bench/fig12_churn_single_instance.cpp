// Figure 12: approximation accuracy in the presence of churn, for a single
// instance (RAM attribute).
//
// Churn model of §VII-G: 0.1% of nodes leave per round and are replaced by
// fresh nodes drawing attribute values from the same distribution. The
// evaluation excludes nodes that joined during the instance (their CDF
// approximations are undefined). Expected shape: (a) Adam2's error at the
// interpolation points no longer converges to zero (mass leaves with the
// departed nodes) but floors around 0.01-0.1%, still ample for
// interpolation; (b) EquiDepth is not significantly affected by churn but
// stays at its usual error floor.
#include <cstdio>

#include "baselines/equidepth.hpp"
#include <string>

#include "common.hpp"
#include "core/evaluation.hpp"

using namespace adam2;

namespace {

constexpr std::size_t kRounds = 80;
constexpr double kChurnRate = 0.001;

void run_adam2(const bench::BenchEnv& env,
               const std::vector<stats::Value>& values) {
  core::SystemConfig config = bench::default_system(env);
  config.engine.churn_rate = kChurnRate;
  config.protocol.instance_ttl = kRounds + 2;
  core::Adam2System system(config, values,
                           bench::churn_source(data::Attribute::kRamMb));
  system.run_rounds(5);
  const auto id = system.start_instance();
  const host::Round started = system.engine().round();

  std::printf("\n## (a) Adam2 under churn %.3g/round, RAM\n", kChurnRate);
  bench::print_header("round", {"max_points", "avg_points", "max_entire",
                                "avg_entire"});
  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  options.born_by = started;  // Exclude nodes that joined mid-instance.
  for (std::size_t round = 1; round <= kRounds; ++round) {
    system.run_rounds(1);
    const stats::EmpiricalCdf truth = system.truth();
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
                   const std::vector<stats::Value>& values) {
  baselines::EquiDepthConfig config;
  config.bins = 50;
  config.phase_ttl = kRounds + 2;
  sim::EngineConfig engine_config;
  engine_config.seed = env.seed;
  engine_config.churn_rate = kChurnRate;
  sim::CycleEngine engine(
      engine_config, values, core::make_overlay(core::OverlayKind::kCyclon, 20),
      [config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(config);
      },
      bench::churn_source(data::Attribute::kRamMb));
  engine.run_rounds(5);
  const auto initiator = engine.random_live_node();
  auto ctx = engine.context_for(initiator);
  const auto phase =
      dynamic_cast<baselines::EquiDepthAgent&>(engine.agent(initiator))
          .start_phase(ctx);
  const host::Round started = engine.round();

  std::printf("\n## (b) EquiDepth under churn %.3g/round, RAM\n", kChurnRate);
  bench::print_header("round",
                      {"max_bins", "avg_bins", "max_entire", "avg_entire"});
  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  options.born_by = started;  // Exclude nodes that joined mid-phase.
  for (std::size_t round = 1; round <= kRounds; ++round) {
    engine.run_rounds(1);
    const stats::EmpiricalCdf truth{engine.live_attribute_values()};
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
  bench::open_report("fig12_churn_single_instance", env);
  bench::print_banner("Figure 12: single-instance accuracy under churn (RAM)",
                      env);
  const auto values = bench::population(data::Attribute::kRamMb, env.n, env.seed);
  run_adam2(env, values);
  run_equidepth(env, values);
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
