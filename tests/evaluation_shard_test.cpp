// Sharded population evaluation must be bit-identical to serial evaluation:
// EvaluationOptions::threads fans the per-peer error sweeps over a worker
// pool, but the reduction stays serial in fixed peer order, so every one of
// the six PopulationErrors fields must match the serial run *exactly* — at
// any thread count, under churn, and with peer sampling active. The
// EquiDepth evaluators run on the same reduction, so they are checked too.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "baselines/equidepth.hpp"
#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "rng/rng.hpp"
#include "sim/cycle_engine.hpp"
#include "stats/cdf.hpp"

namespace adam2::core {
namespace {

SystemConfig small_config(std::uint64_t seed, double churn_rate) {
  SystemConfig config;
  config.engine.seed = seed;
  config.engine.churn_rate = churn_rate;
  config.protocol.lambda = 20;
  config.protocol.instance_ttl = 20;
  return config;
}

std::vector<stats::Value> ram_population(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  return data::generate_population(data::Attribute::kRamMb, n, rng);
}

void expect_identical(const PopulationErrors& serial,
                      const PopulationErrors& sharded) {
  EXPECT_EQ(serial.max_err, sharded.max_err);
  EXPECT_EQ(serial.avg_err, sharded.avg_err);
  EXPECT_EQ(serial.stddev_max, sharded.stddev_max);
  EXPECT_EQ(serial.stddev_avg, sharded.stddev_avg);
  EXPECT_EQ(serial.peers, sharded.peers);
  EXPECT_EQ(serial.missing, sharded.missing);
}

/// Runs `evaluate(options)` at 1, 2 and 8 threads and expects every
/// sharded result to equal the serial one exactly; returns the serial one.
template <typename Evaluate>
PopulationErrors expect_thread_count_invariant(EvaluationOptions options,
                                               Evaluate&& evaluate) {
  options.threads = 1;
  const PopulationErrors serial = evaluate(options);
  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    expect_identical(serial, evaluate(options));
  }
  return serial;
}

TEST(EvaluationShardTest, EstimatesBitIdenticalAcrossThreadCounts) {
  const auto values = ram_population(400, 7);
  const stats::EmpiricalCdf truth{values};
  Adam2System system(small_config(7, 0.0), values);
  system.run_instance();

  EvaluationOptions options;
  options.peer_sample = 150;
  const PopulationErrors serial = expect_thread_count_invariant(
      options, [&](const EvaluationOptions& o) {
        return evaluate_estimates(system.engine(), truth, o);
      });
  EXPECT_GT(serial.peers, 0u);
}

TEST(EvaluationShardTest, MidInstanceCdfBitIdenticalUnderChurn) {
  const auto values = ram_population(300, 11);
  Adam2System system(small_config(11, 0.01), values,
                     [](rng::Rng& rng) {
                       return data::sample_attribute(data::Attribute::kRamMb,
                                                     rng);
                     });
  system.run_rounds(3);
  const wire::InstanceId id = system.start_instance();
  // Stop mid-instance so some live peers have not joined yet (exercises the
  // missing-peer path) and churned-in nodes are present.
  system.run_rounds(6);
  const stats::EmpiricalCdf truth = system.truth();

  EvaluationOptions options;
  options.peer_sample = 120;
  expect_thread_count_invariant(options, [&](const EvaluationOptions& o) {
    return evaluate_instance_cdf(system.engine(), id, truth, o);
  });
}

TEST(EvaluationShardTest, PointErrorsAndMissingPolicyBitIdentical) {
  const auto values = ram_population(250, 13);
  const stats::EmpiricalCdf truth{values};
  Adam2System system(small_config(13, 0.005), values,
                     [](rng::Rng& rng) {
                       return data::sample_attribute(data::Attribute::kRamMb,
                                                     rng);
                     });
  system.run_instance();

  for (const bool missing_counts : {true, false}) {
    EvaluationOptions options;
    options.peer_sample = 0;  // Every live peer.
    options.missing_counts_as_one = missing_counts;
    expect_thread_count_invariant(options, [&](const EvaluationOptions& o) {
      return evaluate_estimate_points(system.engine(), truth, o);
    });
  }
}

TEST(EvaluationShardTest, EquiDepthEvaluatorsBitIdenticalUnderChurn) {
  const auto values = ram_population(300, 19);
  baselines::EquiDepthConfig config;
  config.bins = 20;
  config.phase_ttl = 20;
  sim::EngineConfig engine_config;
  engine_config.seed = 19;
  engine_config.churn_rate = 0.01;
  sim::CycleEngine engine(
      engine_config, values, make_overlay(OverlayKind::kCyclon, 10),
      [config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(config);
      },
      [](rng::Rng& rng) {
        return data::sample_attribute(data::Attribute::kRamMb, rng);
      });
  engine.run_rounds(3);
  const host::NodeId initiator = engine.random_live_node();
  auto ctx = engine.context_for(initiator);
  const wire::InstanceId phase =
      dynamic_cast<baselines::EquiDepthAgent&>(engine.agent(initiator))
          .start_phase(ctx);
  const host::Round started = engine.round();
  // Mid-phase: some live peers have not joined yet, and churned-in nodes
  // are present for born_by to exclude.
  engine.run_rounds(5);
  const stats::EmpiricalCdf mid_truth{engine.live_attribute_values()};

  EvaluationOptions options;
  options.peer_sample = 120;
  options.born_by = started;
  const PopulationErrors cdf =
      expect_thread_count_invariant(options, [&](const EvaluationOptions& o) {
        return baselines::evaluate_equidepth_phase_cdf(engine, phase,
                                                       mid_truth, o);
      });
  EXPECT_GT(cdf.peers, 0u);
  expect_thread_count_invariant(options, [&](const EvaluationOptions& o) {
    return baselines::evaluate_equidepth_phase_points(engine, phase, mid_truth,
                                                      o);
  });

  engine.run_rounds(config.phase_ttl);  // The phase finalises everywhere.
  const stats::EmpiricalCdf truth{engine.live_attribute_values()};
  options.born_by.reset();
  const PopulationErrors estimates =
      expect_thread_count_invariant(options, [&](const EvaluationOptions& o) {
        return baselines::evaluate_equidepth(engine, truth, o);
      });
  EXPECT_GT(estimates.peers, 0u);
}

TEST(EvaluationShardTest, MoreThreadsThanPeersIsSafe) {
  const auto values = ram_population(40, 17);
  const stats::EmpiricalCdf truth{values};
  Adam2System system(small_config(17, 0.0), values);
  system.run_instance();

  EvaluationOptions options;
  options.peer_sample = 5;
  options.threads = 1;
  const PopulationErrors serial =
      evaluate_estimates(system.engine(), truth, options);
  options.threads = 64;
  expect_identical(serial, evaluate_estimates(system.engine(), truth,
                                              options));
}

}  // namespace
}  // namespace adam2::core
