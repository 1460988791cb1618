#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/equidepth.hpp"
#include "baselines/sampling.hpp"
#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "sim/overlay.hpp"

namespace adam2::baselines {
namespace {

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<stats::Value>(i + 1);
  }
  return values;
}

sim::CycleEngine make_equidepth_engine(const EquiDepthConfig& config,
                                       std::vector<stats::Value> values,
                                       std::uint64_t seed = 1,
                                       double churn = 0.0,
                                       host::AttributeSource source = nullptr) {
  sim::EngineConfig engine_config;
  engine_config.seed = seed;
  engine_config.churn_rate = churn;
  return sim::CycleEngine(
      engine_config, std::move(values),
      std::make_unique<sim::StaticRandomOverlay>(8),
      [config](const host::AgentContext&) {
        return std::make_unique<EquiDepthAgent>(config);
      },
      std::move(source));
}

wire::InstanceId run_phase(sim::CycleEngine& engine,
                           const EquiDepthConfig& config,
                           host::NodeId initiator = 0) {
  auto ctx = engine.context_for(initiator);
  auto& agent = dynamic_cast<EquiDepthAgent&>(engine.agent(initiator));
  const auto id = agent.start_phase(ctx);
  engine.run_rounds(config.phase_ttl + 1u);
  return id;
}

// ---------------------------------------------------------------- EquiDepth

TEST(EquiDepthTest, PhaseSpreadsToAllNodes) {
  EquiDepthConfig config;
  config.bins = 10;
  config.phase_ttl = 20;
  auto engine = make_equidepth_engine(config, iota_values(200));
  run_phase(engine, config);
  std::size_t with_estimate = 0;
  for (host::NodeId id : engine.live_ids()) {
    const auto& agent = dynamic_cast<const EquiDepthAgent&>(engine.agent(id));
    with_estimate += agent.estimate().has_value() ? 1u : 0u;
  }
  EXPECT_EQ(with_estimate, 200u);
}

TEST(EquiDepthTest, SynopsisRespectsBinBudget) {
  EquiDepthConfig config;
  config.bins = 16;
  config.phase_ttl = 30;
  auto engine = make_equidepth_engine(config, iota_values(300), 2);
  auto ctx = engine.context_for(0);
  auto& agent = dynamic_cast<EquiDepthAgent&>(engine.agent(0));
  const auto id = agent.start_phase(ctx);
  for (int round = 0; round < 30; ++round) {
    engine.run_rounds(1);
    for (host::NodeId node : engine.live_ids()) {
      const auto& a = dynamic_cast<const EquiDepthAgent&>(engine.agent(node));
      EXPECT_LE(a.phase_synopsis(id).size(), 16u);
    }
  }
}

TEST(EquiDepthTest, EstimatesRoughCdfShape) {
  EquiDepthConfig config;
  config.bins = 50;
  config.phase_ttl = 25;
  auto engine = make_equidepth_engine(config, iota_values(1000), 3);
  run_phase(engine, config);
  const stats::EmpiricalCdf truth{iota_values(1000)};
  const auto errors = evaluate_equidepth(engine, truth);
  EXPECT_EQ(errors.peers, 1000u);
  // Right ballpark but clearly worse than Adam2's 1e-9 at points.
  EXPECT_LT(errors.avg_err, 0.15);
  EXPECT_GT(errors.avg_err, 1e-6);
}

TEST(EquiDepthTest, ErrorDoesNotImproveAcrossPhases) {
  // §VII-C / Fig. 8: EquiDepth generates the same error in every phase since
  // the bins are never refined from previous estimates.
  rng::Rng data_rng(4);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 1500, data_rng);
  const stats::EmpiricalCdf truth{values};
  EquiDepthConfig config;
  config.bins = 30;
  config.phase_ttl = 25;
  auto engine = make_equidepth_engine(config, values, 4);

  std::vector<double> per_phase;
  for (int phase = 0; phase < 4; ++phase) {
    run_phase(engine, config, engine.random_live_node());
    per_phase.push_back(evaluate_equidepth(engine, truth).avg_err);
  }
  // No order-of-magnitude improvement from first to last phase.
  EXPECT_GT(per_phase.back(), per_phase.front() / 3.0);
}

TEST(EquiDepthTest, AccuracyFloorOnSteppedCdf) {
  // The duplication + fixed bins keep EquiDepth's Errm at several percent on
  // a stepped distribution, where Adam2 converges to ~1e-9 at points.
  rng::Rng data_rng(5);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 2000, data_rng);
  const stats::EmpiricalCdf truth{values};
  EquiDepthConfig config;
  auto engine = make_equidepth_engine(config, values, 5);
  run_phase(engine, config);
  const auto errors = evaluate_equidepth(engine, truth);
  EXPECT_GT(errors.max_err, 0.01);
}

TEST(EquiDepthTest, WorseThanAdam2OnSteppedCdf) {
  rng::Rng data_rng(6);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 1500, data_rng);
  const stats::EmpiricalCdf truth{values};

  EquiDepthConfig ed_config;
  ed_config.bins = 50;
  auto ed_engine = make_equidepth_engine(ed_config, values, 6);
  for (int i = 0; i < 3; ++i) {
    run_phase(ed_engine, ed_config, ed_engine.random_live_node());
  }
  const auto ed_errors = evaluate_equidepth(ed_engine, truth);

  core::SystemConfig a2_config;
  a2_config.engine.seed = 6;
  a2_config.protocol.lambda = 50;
  a2_config.overlay = core::OverlayKind::kStaticRandom;
  a2_config.overlay_degree = 8;
  core::Adam2System a2(a2_config, values);
  for (int i = 0; i < 3; ++i) a2.run_instance();
  const auto a2_errors = a2.errors();

  EXPECT_LT(a2_errors.avg_err, ed_errors.avg_err);
}

TEST(EquiDepthTest, ResilientToChurn) {
  // §VII-G / Fig. 12(b): EquiDepth is not significantly affected by churn.
  rng::Rng data_rng(7);
  const auto values =
      data::generate_population(data::Attribute::kCpuMflops, 1000, data_rng);
  EquiDepthConfig config;
  auto engine = make_equidepth_engine(
      config, values, 7, 0.001, [](rng::Rng& rng) {
        return data::sample_attribute(data::Attribute::kCpuMflops, rng);
      });
  run_phase(engine, config);
  const stats::EmpiricalCdf truth{engine.live_attribute_values()};
  core::EvaluationOptions options;
  options.missing_counts_as_one = false;
  const auto errors = evaluate_equidepth(engine, truth, options);
  EXPECT_LT(errors.avg_err, 0.1);
}

TEST(EquiDepthTest, LateJoinersIgnoreRunningPhases) {
  EquiDepthConfig config;
  config.phase_ttl = 30;
  auto engine = make_equidepth_engine(
      config, iota_values(200), 8, 0.02,
      [](rng::Rng& rng) { return static_cast<stats::Value>(rng.below(200)); });
  auto ctx = engine.context_for(0);
  auto& agent = dynamic_cast<EquiDepthAgent&>(engine.agent(0));
  const auto id = agent.start_phase(ctx);
  engine.run_rounds(15);
  for (host::NodeId node : engine.live_ids()) {
    if (engine.node(node).birth_round > 0) {
      const auto& a = dynamic_cast<const EquiDepthAgent&>(engine.agent(node));
      EXPECT_TRUE(a.phase_synopsis(id).empty());
    }
  }
}

TEST(EquiDepthTest, MessageBudgetComparableToAdam2) {
  // §VII-I: EquiDepth sends the same number of messages with similar sizes.
  EquiDepthConfig config;
  config.bins = 50;
  auto engine = make_equidepth_engine(config, iota_values(500), 9);
  run_phase(engine, config);
  const auto& traffic = engine.total_traffic().on(host::Channel::kAggregation);
  ASSERT_GT(traffic.messages_sent, 0u);
  const double avg_size = static_cast<double>(traffic.bytes_sent) /
                          static_cast<double>(traffic.messages_sent);
  EXPECT_GT(avg_size, 400.0);
  EXPECT_LT(avg_size, 1000.0);
}

// ----------------------------------------------------------------- Sampling

TEST(SamplingTest, SampleCdfMatchesPopulationForFullSample) {
  const auto values = iota_values(500);
  const auto cdf = sample_cdf(values);
  EXPECT_NEAR(cdf(250.0), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(cdf(500.0), 1.0);
}

TEST(SamplingTest, ErrorDecreasesWithSampleSize) {
  rng::Rng data_rng(10);
  const auto values =
      data::generate_population(data::Attribute::kCpuMflops, 20000, data_rng);
  rng::Rng rng(11);
  double previous = 1.0;
  for (std::size_t size : {10u, 100u, 1000u, 10000u}) {
    SamplingConfig config;
    config.sample_size = size;
    const auto result = estimate_by_sampling(values, config, rng);
    EXPECT_LT(result.errors.max_err, previous * 1.5)
        << "sample size " << size;
    previous = result.errors.max_err;
  }
  EXPECT_LT(previous, 0.05);  // 10k samples: few-percent accuracy.
}

TEST(SamplingTest, SmallSamplesAreInaccurate) {
  rng::Rng data_rng(12);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 10000, data_rng);
  rng::Rng rng(13);
  SamplingConfig config;
  config.sample_size = 10;
  const auto result = estimate_by_sampling(values, config, rng);
  EXPECT_GT(result.errors.max_err, 0.05);
}

TEST(SamplingTest, CostModelCountsWalkMessages) {
  const auto values = iota_values(100);
  rng::Rng rng(14);
  SamplingConfig config;
  config.sample_size = 1000;
  const auto result = estimate_by_sampling(values, config, rng);
  EXPECT_EQ(result.messages, 10000u);  // kWalkHops = 10 per sample.
  EXPECT_EQ(result.bytes_estimate, 10000u * 48u);
}

TEST(SamplingTest, SkewedCdfNeedsMoreSamplesThanSmooth) {
  // §VII-C: "error measurements for random sampling are higher for
  // heavily-skewed CDFs compared to smooth CDFs".
  rng::Rng data_rng(15);
  const auto smooth =
      data::generate_population(data::Attribute::kCpuMflops, 20000, data_rng);
  const auto skewed =
      data::generate_population(data::Attribute::kRamMb, 20000, data_rng);
  rng::Rng rng(16);
  SamplingConfig config;
  config.sample_size = 100;
  double smooth_err = 0.0;
  double skewed_err = 0.0;
  for (int i = 0; i < 20; ++i) {  // Average over repetitions.
    smooth_err += estimate_by_sampling(smooth, config, rng).errors.avg_err;
    skewed_err += estimate_by_sampling(skewed, config, rng).errors.avg_err;
  }
  EXPECT_GT(skewed_err, smooth_err);
}

TEST(EquiDepthTest, GossipsTheOldestActivePhase) {
  // Regression for the adam2_lint `unordered-iter` fix: when a node carries
  // several concurrent phases it gossips the *oldest* one (first joined or
  // started), not whichever `active_.begin()` lands on in the hash table's
  // bucket order. One node joins phases from many scattered initiators and
  // must keep gossiping the first arrival.
  EquiDepthConfig config;
  config.bins = 8;
  config.phase_ttl = 40;
  auto engine = make_equidepth_engine(config, iota_values(32));
  const host::NodeId joiner = 0;

  std::vector<wire::InstanceId> arrival;
  for (host::NodeId initiator : {5, 17, 3, 29, 11, 23, 7, 13}) {
    auto ictx = engine.context_for(initiator);
    auto& agent = dynamic_cast<EquiDepthAgent&>(engine.agent(initiator));
    arrival.push_back(agent.start_phase(ictx));
    const auto request = agent.make_request(ictx);
    auto jctx = engine.context_for(joiner);
    (void)dynamic_cast<EquiDepthAgent&>(engine.agent(joiner))
        .handle_request(jctx, request);
  }

  auto& agent = dynamic_cast<EquiDepthAgent&>(engine.agent(joiner));
  ASSERT_EQ(agent.active_phase_count(), arrival.size());
  auto jctx = engine.context_for(joiner);
  const auto request = agent.make_request(jctx);
  const wire::EquiDepthMessage decoded = wire::EquiDepthMessage::decode(request);
  EXPECT_EQ(decoded.phase, arrival.front());
}

}  // namespace
}  // namespace adam2::baselines
