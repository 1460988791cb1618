// End-to-end reproduction checks of the paper's headline claims at reduced
// scale (a few thousand nodes). The bench binaries reproduce the full
// figures; these tests pin the qualitative shape so regressions are caught
// by ctest.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/equidepth.hpp"
#include "baselines/sampling.hpp"
#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"

namespace adam2 {
namespace {

std::vector<stats::Value> ram_population(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  return data::generate_population(data::Attribute::kRamMb, n, rng);
}

std::vector<stats::Value> cpu_population(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  return data::generate_population(data::Attribute::kCpuMflops, n, rng);
}

core::SystemConfig paper_config(std::uint64_t seed) {
  core::SystemConfig config;
  config.engine.seed = seed;
  config.protocol.lambda = 50;
  config.protocol.instance_ttl = 25;
  config.protocol.heuristic = core::SelectionHeuristic::kMinMax;
  config.protocol.bootstrap = core::BootstrapPoints::kNeighbourBased;
  config.overlay = core::OverlayKind::kCyclon;
  config.overlay_degree = 20;
  return config;
}

TEST(IntegrationTest, SingleInstanceErrorAtPointsBecomesNegligible) {
  // §VII-A: within one instance the error at the interpolation points
  // decreases exponentially and becomes negligible, while the entire-CDF
  // error floors at the interpolation error of a few percent.
  const auto values = ram_population(3000, 1);
  const stats::EmpiricalCdf truth{values};
  core::Adam2System system(paper_config(1), values);
  system.run_instance();

  const auto at_points = core::evaluate_estimate_points(system.engine(), truth);
  const auto entire = core::evaluate_estimates(system.engine(), truth);
  EXPECT_LT(at_points.avg_err, 1e-4);
  EXPECT_GT(entire.avg_err, at_points.avg_err * 10.0);
  EXPECT_LT(entire.max_err, 0.20);  // Paper Fig. 6(a): ~8% at 100k nodes.
}

TEST(IntegrationTest, ThreeInstancesReachPaperBandAccuracy) {
  // Abstract: avg error ~0.05%, max error ~2% after three instances. At
  // 3,000 nodes instead of 100,000 we allow looser bands of the same order.
  const auto values = ram_population(3000, 2);
  const stats::EmpiricalCdf truth{values};
  core::Adam2System system(paper_config(2), values);
  for (int i = 0; i < 3; ++i) system.run_instance();

  const auto errors = core::evaluate_estimates(system.engine(), truth);
  EXPECT_LT(errors.max_err, 0.10);
  EXPECT_LT(errors.avg_err, 0.01);
}

TEST(IntegrationTest, MinMaxBeatsHCutOnSteppedCdfErrm) {
  // §VII-C: for heavily-skewed attributes MinMax significantly outperforms
  // the others on Errm because it identifies the steps.
  const auto values = ram_population(3000, 3);
  const stats::EmpiricalCdf truth{values};

  auto run = [&](core::SelectionHeuristic heuristic) {
    core::SystemConfig config = paper_config(3);
    config.protocol.heuristic = heuristic;
    core::Adam2System system(config, values);
    for (int i = 0; i < 4; ++i) system.run_instance();
    return core::evaluate_estimates(system.engine(), truth);
  };
  const auto minmax = run(core::SelectionHeuristic::kMinMax);
  const auto hcut = run(core::SelectionHeuristic::kHCut);
  EXPECT_LT(minmax.max_err, hcut.max_err * 1.2);
  EXPECT_LT(minmax.max_err, 0.06);
}

TEST(IntegrationTest, LCutBestOnAverageError) {
  // §VII-C: LCut achieves roughly an order of magnitude better Erra.
  const auto values = cpu_population(3000, 4);
  const stats::EmpiricalCdf truth{values};

  auto run = [&](core::SelectionHeuristic heuristic) {
    core::SystemConfig config = paper_config(4);
    config.protocol.heuristic = heuristic;
    core::Adam2System system(config, values);
    for (int i = 0; i < 4; ++i) system.run_instance();
    return core::evaluate_estimates(system.engine(), truth).avg_err;
  };
  const double lcut = run(core::SelectionHeuristic::kLCut);
  const double hcut = run(core::SelectionHeuristic::kHCut);
  EXPECT_LT(lcut, hcut);
}

TEST(IntegrationTest, Adam2OutperformsEquiDepthByAnOrderOfMagnitude) {
  const auto values = ram_population(2000, 5);
  const stats::EmpiricalCdf truth{values};

  core::SystemConfig a2_config = paper_config(5);
  a2_config.protocol.heuristic = core::SelectionHeuristic::kLCut;
  core::Adam2System a2(a2_config, values);
  for (int i = 0; i < 4; ++i) a2.run_instance();
  const auto a2_errors = core::evaluate_estimates(a2.engine(), truth);

  baselines::EquiDepthConfig ed_config;
  sim::EngineConfig engine_config;
  engine_config.seed = 5;
  sim::CycleEngine ed_engine(
      engine_config, values, core::make_overlay(core::OverlayKind::kCyclon, 20),
      [ed_config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(ed_config);
      },
      nullptr);
  for (int i = 0; i < 3; ++i) {
    const auto initiator = ed_engine.random_live_node();
    auto ctx = ed_engine.context_for(initiator);
    dynamic_cast<baselines::EquiDepthAgent&>(ed_engine.agent(initiator))
        .start_phase(ctx);
    ed_engine.run_rounds(ed_config.phase_ttl + 1u);
  }
  const auto ed_errors = baselines::evaluate_equidepth(ed_engine, truth);

  // Paper: an order of magnitude at 100k nodes; at this reduced scale (2k
  // nodes) the gap narrows — require a clear >= 2.5x advantage.
  EXPECT_LT(a2_errors.avg_err * 2.5, ed_errors.avg_err);
}

TEST(IntegrationTest, AccuracyHoldsUnderTypicalChurn) {
  // §VII-G: at 0.1% churn per round the approximation error at interpolation
  // points stays around 0.01-0.1%, clearly sufficient for interpolation.
  const auto values = ram_population(3000, 6);
  core::SystemConfig config = paper_config(6);
  config.engine.churn_rate = 0.001;
  core::Adam2System system(config, values, [](rng::Rng& rng) {
    return data::sample_attribute(data::Attribute::kRamMb, rng);
  });
  for (int i = 0; i < 3; ++i) system.run_instance();

  const auto truth = system.truth();
  core::EvaluationOptions options;
  options.missing_counts_as_one = false;
  const auto at_points =
      core::evaluate_estimate_points(system.engine(), truth, options);
  EXPECT_LT(at_points.avg_err, 0.01);
  const auto entire =
      core::evaluate_estimates(system.engine(), truth, options);
  EXPECT_LT(entire.avg_err, 0.02);
}

TEST(IntegrationTest, ConfidenceEstimationIsInformative) {
  // §VII-H: with ~20 verification points the self-assessment of Erra lands
  // within tens of percent of the true error.
  const auto values = cpu_population(3000, 7);
  const stats::EmpiricalCdf truth{values};
  core::SystemConfig config = paper_config(7);
  config.protocol.heuristic = core::SelectionHeuristic::kLCut;
  config.protocol.verification_points = 20;
  core::Adam2System system(config, values);
  for (int i = 0; i < 2; ++i) system.run_instance();

  const double relative =
      core::confidence_estimation_error(system.engine(), truth, false);
  EXPECT_LT(relative, 0.8);
  EXPECT_GT(relative, 0.0);
}

TEST(IntegrationTest, PerInstanceTrafficMatchesCostModel) {
  // §VII-I: one instance at lambda = 50 costs ~40 kB sent per node
  // (25 rounds x ~2 messages x ~800 B), independent of system size.
  const auto values = ram_population(1000, 8);
  core::SystemConfig config = paper_config(8);
  config.protocol.verification_points = 0;
  core::Adam2System system(config, values);
  system.run_instance();

  const auto& agg =
      system.engine().total_traffic().on(host::Channel::kAggregation);
  const double sent_per_node =
      static_cast<double>(agg.bytes_sent) / 1000.0;
  EXPECT_GT(sent_per_node, 20.0 * 1024);
  EXPECT_LT(sent_per_node, 60.0 * 1024);
}

TEST(IntegrationTest, TrafficPerNodeIndependentOfSystemSize) {
  double per_node[2] = {0.0, 0.0};
  const std::size_t sizes[2] = {500, 2000};
  for (int i = 0; i < 2; ++i) {
    const auto values = ram_population(sizes[i], 9);
    core::Adam2System system(paper_config(9), values);
    system.run_instance();
    const auto& agg =
        system.engine().total_traffic().on(host::Channel::kAggregation);
    per_node[i] =
        static_cast<double>(agg.bytes_sent) / static_cast<double>(sizes[i]);
  }
  EXPECT_NEAR(per_node[0], per_node[1], per_node[0] * 0.2);
}

TEST(IntegrationTest, RandomSamplingNeedsThousandsOfSamples) {
  // §VII-C: about 1,000-10,000 random samples are necessary to match Adam2.
  const auto values = ram_population(20000, 10);
  const stats::EmpiricalCdf truth{values};

  core::Adam2System system(paper_config(10), ram_population(3000, 10));
  for (int i = 0; i < 3; ++i) system.run_instance();
  const auto adam2_errors =
      core::evaluate_estimates(system.engine(),
                               stats::EmpiricalCdf{
                                   system.engine().live_attribute_values()});

  rng::Rng rng(11);
  baselines::SamplingConfig sampling;
  sampling.sample_size = 100;
  const auto few = baselines::estimate_by_sampling(values, sampling, rng);
  EXPECT_GT(few.errors.avg_err, adam2_errors.avg_err);
}

}  // namespace
}  // namespace adam2
