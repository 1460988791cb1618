// Cross-seed property sweeps over the full protocol stack: invariants that
// must hold for *every* seed, population shape, overlay, and join policy —
// not just the handful of seeds the unit tests pin.
#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "sim/cyclon.hpp"

namespace adam2 {
namespace {

std::vector<stats::Value> population_for(int variant, std::size_t n,
                                         std::uint64_t seed) {
  rng::Rng rng(seed);
  switch (variant % 4) {
    case 0: return data::generate_population(data::Attribute::kCpuMflops, n, rng);
    case 1: return data::generate_population(data::Attribute::kRamMb, n, rng);
    case 2: return data::generate_population(data::Attribute::kBandwidthKbps, n, rng);
    default: {
      // Adversarial: few distinct values, extreme skew.
      std::vector<stats::Value> values;
      values.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(rng.bernoulli(0.9) ? 1 : 1'000'000);
      }
      return values;
    }
  }
}

class ProtocolPropertyTest : public ::testing::TestWithParam<int> {};

/// For every configuration: after one full instance every peer holds an
/// estimate whose point fractions match the true CDF to averaging accuracy,
/// whose extremes are exact, and whose size estimate is near-exact.
TEST_P(ProtocolPropertyTest, InstanceInvariantsHoldForAllSeeds) {
  const int variant = GetParam();
  const auto seed = static_cast<std::uint64_t>(variant) * 1337 + 11;
  const std::size_t n = 150 + (static_cast<std::size_t>(variant) * 37) % 250;
  const auto values = population_for(variant, n, seed);
  const stats::EmpiricalCdf truth{values};

  core::SystemConfig config;
  config.engine.seed = seed;
  config.protocol.lambda = 8 + variant % 20;
  config.protocol.instance_ttl = 50;
  config.protocol.heuristic = static_cast<core::SelectionHeuristic>(variant % 3);
  config.overlay = variant % 2 == 0 ? core::OverlayKind::kStaticRandom
                                    : core::OverlayKind::kCyclon;
  config.overlay_degree = 8 + variant % 8;
  core::Adam2System system(config, values);
  system.run_instance();

  for (host::NodeId node : system.engine().live_ids()) {
    const auto& est = system.agent_of(node).estimate();
    ASSERT_TRUE(est.has_value()) << "node " << node;
    // Extremes are exact (min/max merge converges to the global extremes).
    EXPECT_DOUBLE_EQ(est->min_value, static_cast<double>(truth.min()));
    EXPECT_DOUBLE_EQ(est->max_value, static_cast<double>(truth.max()));
    // Size estimation.
    EXPECT_NEAR(est->n_estimate, static_cast<double>(n),
                static_cast<double>(n) * 1e-3);
    // Interpolation points carry true fractions to averaging accuracy.
    for (const stats::CdfPoint& p : est->points) {
      EXPECT_NEAR(p.f, truth(p.t), 1e-4)
          << "node " << node << " at t=" << p.t;
      EXPECT_GE(p.f, -1e-9);
      EXPECT_LE(p.f, 1.0 + 1e-9);
    }
    // The interpolated CDF is a valid monotone CDF.
    EXPECT_TRUE(est->cdf.is_monotone());
    EXPECT_DOUBLE_EQ(est->cdf(est->min_value - 1.0), 0.0);
    EXPECT_DOUBLE_EQ(est->cdf(est->max_value), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolPropertyTest, ::testing::Range(0, 12));

class ChurnPropertyTest : public ::testing::TestWithParam<int> {};

/// Under churn, whatever estimates exist must still be structurally valid
/// and the population size must stay constant.
TEST_P(ChurnPropertyTest, StructuralInvariantsUnderChurn) {
  const int variant = GetParam();
  const auto seed = static_cast<std::uint64_t>(variant) * 7001 + 3;
  const std::size_t n = 300;
  const auto values = population_for(variant, n, seed);

  core::SystemConfig config;
  config.engine.seed = seed;
  config.engine.churn_rate = 0.005 * (1 + variant % 3);
  config.protocol.lambda = 15;
  config.protocol.instance_ttl = 25;
  config.overlay = core::OverlayKind::kCyclon;
  const int captured = variant;
  core::Adam2System system(config, values, [captured](rng::Rng& rng) {
    return population_for(captured, 1, rng())[0];
  });

  for (int i = 0; i < 3; ++i) system.run_instance();

  EXPECT_EQ(system.engine().live_count(), n);
  for (host::NodeId node : system.engine().live_ids()) {
    const auto& est = system.agent_of(node).estimate();
    if (!est) continue;  // Recently churned in, bootstrap found nothing yet.
    EXPECT_TRUE(est->cdf.is_monotone());
    for (const stats::CdfPoint& p : est->points) {
      EXPECT_GE(p.f, -1e-9);
      EXPECT_LE(p.f, 1.0 + 1e-9);
      EXPECT_TRUE(std::isfinite(p.t));
    }
    EXPECT_LE(est->min_value, est->max_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnPropertyTest, ::testing::Range(0, 8));

class TrafficPropertyTest : public ::testing::TestWithParam<int> {};

/// Conservation of traffic: bytes sent == bytes received globally, per-node
/// totals sum to the global counters, and all aggregation traffic happens
/// only while an instance is live.
TEST_P(TrafficPropertyTest, AccountingIsConsistent) {
  const int variant = GetParam();
  const auto seed = static_cast<std::uint64_t>(variant) * 97 + 29;
  const auto values = population_for(variant, 200, seed);

  core::SystemConfig config;
  config.engine.seed = seed;
  config.protocol.lambda = 10;
  config.protocol.instance_ttl = 20;
  config.overlay = variant % 2 == 0 ? core::OverlayKind::kStaticRandom
                                    : core::OverlayKind::kCyclon;
  core::Adam2System system(config, values);

  // Idle rounds: no aggregation traffic at all.
  system.run_rounds(3);
  EXPECT_EQ(system.engine()
                .total_traffic()
                .on(host::Channel::kAggregation)
                .messages_sent,
            0u);

  system.run_instance();
  const auto& total = system.engine().total_traffic();
  for (host::Channel channel :
       {host::Channel::kAggregation, host::Channel::kOverlay,
        host::Channel::kBootstrap}) {
    const auto& t = total.on(channel);
    EXPECT_EQ(t.bytes_sent, t.bytes_received) << channel_name(channel);
    EXPECT_EQ(t.messages_sent, t.messages_received);
  }
  EXPECT_GT(total.on(host::Channel::kAggregation).messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace adam2
