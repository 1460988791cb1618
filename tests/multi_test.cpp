#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/multi.hpp"
#include "core/system.hpp"
#include "sim/overlay.hpp"
#include "stats/error_metrics.hpp"

namespace adam2::core {
namespace {

/// Builds an engine where node i holds the value set `sets[i]` (the node's
/// engine-level attribute is its first value, used only by the overlay).
sim::CycleEngine make_multi_engine(std::vector<std::vector<stats::Value>> sets,
                                   Adam2Config config, std::uint64_t seed = 1) {
  std::vector<stats::Value> attributes;
  attributes.reserve(sets.size());
  for (const auto& s : sets) attributes.push_back(s.front());
  auto shared = std::make_shared<std::vector<std::vector<stats::Value>>>(
      std::move(sets));
  sim::EngineConfig engine_config;
  engine_config.seed = seed;
  return sim::CycleEngine(
      engine_config, std::move(attributes),
      std::make_unique<sim::StaticRandomOverlay>(8),
      [shared, config](const host::AgentContext& ctx) {
        return std::make_unique<MultiValueAdam2Agent>(
            config, (*shared)[static_cast<std::size_t>(ctx.self)]);
      },
      nullptr);
}

Adam2Config multi_config(std::size_t lambda = 10, std::uint16_t ttl = 60) {
  Adam2Config config;
  config.lambda = lambda;
  config.instance_ttl = ttl;
  config.bootstrap = BootstrapPoints::kUniform;
  return config;
}

TEST(MultiValueTest, EstimatesUnionDistribution) {
  // 50 nodes; node i holds {i+1, 100 + i + 1}: the union is 1..50 plus
  // 101..150, so F(50) = 0.5 exactly and F(100) = 0.5.
  std::vector<std::vector<stats::Value>> sets;
  for (int i = 0; i < 50; ++i) {
    sets.push_back({static_cast<stats::Value>(i + 1),
                    static_cast<stats::Value>(100 + i + 1)});
  }
  auto engine = make_multi_engine(std::move(sets), multi_config());

  auto ctx = engine.context_for(0);
  auto& initiator = dynamic_cast<Adam2Agent&>(engine.agent(0));
  initiator.start_instance(ctx);
  engine.run_rounds(61);
  // A second instance refines the bootstrap points (which only covered the
  // engine-level single attributes) across the full union range.
  auto ctx2 = engine.context_for(1);
  dynamic_cast<Adam2Agent&>(engine.agent(1)).start_instance(ctx2);
  engine.run_rounds(61);

  for (host::NodeId node : engine.live_ids()) {
    const auto& agent = dynamic_cast<const Adam2Agent&>(engine.agent(node));
    const auto& est = agent.estimate();
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->cdf(75.0), 0.5, 0.05);
    for (const stats::CdfPoint& p : est->points) {
      double expected = 0.0;
      for (int i = 1; i <= 50; ++i) {
        if (static_cast<double>(i) <= p.t) expected += 1.0;
        if (static_cast<double>(100 + i) <= p.t) expected += 1.0;
      }
      expected /= 100.0;
      EXPECT_NEAR(p.f, expected, 1e-6) << "at t=" << p.t;
    }
  }
}

TEST(MultiValueTest, HandlesVaryingSetSizes) {
  // Node i holds i+1 copies-worth of distinct values; the averaging must
  // weight by value count, not by node count.
  std::vector<std::vector<stats::Value>> sets;
  std::vector<stats::Value> all;
  for (int i = 0; i < 30; ++i) {
    std::vector<stats::Value> mine;
    for (int j = 0; j <= i; ++j) {
      mine.push_back(static_cast<stats::Value>(10 * i + j + 1));
    }
    all.insert(all.end(), mine.begin(), mine.end());
    sets.push_back(std::move(mine));
  }
  const stats::EmpiricalCdf truth{all};
  auto engine = make_multi_engine(std::move(sets), multi_config(20));

  auto ctx = engine.context_for(5);
  auto& initiator = dynamic_cast<Adam2Agent&>(engine.agent(5));
  initiator.start_instance(ctx);
  engine.run_rounds(61);

  const auto& est =
      dynamic_cast<const Adam2Agent&>(engine.agent(0)).estimate();
  ASSERT_TRUE(est.has_value());
  for (const stats::CdfPoint& p : est->points) {
    EXPECT_NEAR(p.f, truth(p.t), 1e-6) << "at t=" << p.t;
  }
}

TEST(MultiValueTest, ExtremesComeFromUnion) {
  std::vector<std::vector<stats::Value>> sets{{500, 600}, {-20, 30}, {1000, 2}};
  auto engine = make_multi_engine(std::move(sets), multi_config());
  auto ctx = engine.context_for(0);
  dynamic_cast<Adam2Agent&>(engine.agent(0)).start_instance(ctx);
  engine.run_rounds(61);
  const auto& est =
      dynamic_cast<const Adam2Agent&>(engine.agent(1)).estimate();
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->min_value, -20.0);
  EXPECT_DOUBLE_EQ(est->max_value, 1000.0);
}

TEST(MultiValueTest, SentinelIsStrippedFromFinalPoints) {
  std::vector<std::vector<stats::Value>> sets{{1, 2}, {3, 4}, {5, 6}};
  Adam2Config config = multi_config(5, 30);
  auto engine = make_multi_engine(std::move(sets), config);
  auto ctx = engine.context_for(0);
  dynamic_cast<Adam2Agent&>(engine.agent(0)).start_instance(ctx);
  engine.run_rounds(31);
  const auto& est =
      dynamic_cast<const Adam2Agent&>(engine.agent(2)).estimate();
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->points.size(), 5u);
  for (const stats::CdfPoint& p : est->points) {
    EXPECT_TRUE(std::isfinite(p.t));
    EXPECT_LE(p.f, 1.0 + 1e-9);
  }
}

TEST(MultiValueTest, OwnValuesAreSortedOnConstruction) {
  const MultiValueAdam2Agent agent(multi_config(), {9, 3, 7, 1});
  EXPECT_TRUE(std::is_sorted(agent.own_values().begin(),
                             agent.own_values().end()));
}

}  // namespace
}  // namespace adam2::core
