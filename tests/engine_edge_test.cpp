// Edge cases of the simulation substrate: degenerate populations, exhausted
// overlays, repeated kills, and clamped churn.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "sim/cyclon.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/overlay.hpp"

namespace adam2::sim {
namespace {

class SilentAgent final : public host::NodeAgent {
 public:
  std::span<const std::byte> make_request(host::AgentContext&) override {
    return {};
  }
  std::span<const std::byte> handle_request(host::AgentContext&,
                                            std::span<const std::byte>) override {
    return {};
  }
};

host::AgentFactory silent_factory() {
  return [](const host::AgentContext&) {
    return std::make_unique<SilentAgent>();
  };
}

TEST(EngineEdgeTest, EmptyPopulationRunsHarmlessly) {
  CycleEngine engine(EngineConfig{}, {},
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  engine.run_rounds(3);
  EXPECT_EQ(engine.live_count(), 0u);
  EXPECT_THROW((void)engine.random_live_node(), std::runtime_error);
}

TEST(EngineEdgeTest, SingleNodeCannotGossip) {
  core::SystemConfig config;
  config.overlay = core::OverlayKind::kStaticRandom;
  core::Adam2System system(config, {42});
  system.start_instance(host::NodeId{0});
  system.run_rounds(3);
  // No neighbour exists: every attempted exchange is a failed contact.
  EXPECT_GT(system.engine().total_traffic().failed_contacts, 0u);
  EXPECT_EQ(system.engine()
                .total_traffic()
                .on(host::Channel::kAggregation)
                .messages_sent,
            0u);
}

TEST(EngineEdgeTest, SingleNodeInstanceStillFinalises) {
  core::SystemConfig config;
  config.protocol.instance_ttl = 5;
  core::Adam2System system(config, {42});
  system.run_instance(host::NodeId{0});
  const auto& est = system.agent_of(0).estimate();
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->n_estimate, 1.0);  // Weight never diluted.
  EXPECT_DOUBLE_EQ(est->min_value, 42.0);
  EXPECT_DOUBLE_EQ(est->max_value, 42.0);
}

TEST(EngineEdgeTest, TwoNodeSystemConverges) {
  core::SystemConfig config;
  config.protocol.lambda = 3;
  config.protocol.instance_ttl = 40;
  config.overlay = core::OverlayKind::kStaticRandom;
  config.overlay_degree = 1;
  core::Adam2System system(config, {10, 20});
  system.run_instance(host::NodeId{0});
  for (host::NodeId id : {host::NodeId{0}, host::NodeId{1}}) {
    const auto& est = system.agent_of(id).estimate();
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->n_estimate, 2.0, 1e-6);
    EXPECT_DOUBLE_EQ(est->min_value, 10.0);
    EXPECT_DOUBLE_EQ(est->max_value, 20.0);
    for (const stats::CdfPoint& p : est->points) {
      const double truth = p.t >= 20 ? 1.0 : (p.t >= 10 ? 0.5 : 0.0);
      EXPECT_NEAR(p.f, truth, 1e-9);
    }
  }
}

TEST(EngineEdgeTest, KillNodeTwiceIsIdempotent) {
  CycleEngine engine(EngineConfig{}, {1, 2, 3},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  engine.kill_node(1);
  engine.kill_node(1);
  EXPECT_EQ(engine.live_count(), 2u);
}

TEST(EngineEdgeTest, ChurnCountClampsToPopulation) {
  CycleEngine engine(EngineConfig{}, {1, 2, 3},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     [](rng::Rng&) { return stats::Value{9}; });
  engine.churn_nodes(100);  // More than exist.
  EXPECT_EQ(engine.live_count(), 3u);
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_EQ(engine.attribute_of(id), 9);
  }
}

TEST(EngineEdgeTest, ObserverSeesConsistentStateDuringChurn) {
  EngineConfig config;
  config.churn_rate = 0.2;
  config.seed = 5;
  CycleEngine engine(config, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                     std::make_unique<StaticRandomOverlay>(3), silent_factory(),
                     [](rng::Rng& rng) {
                       return static_cast<stats::Value>(rng.below(50));
                     });
  for (int round = 0; round < 10; ++round) {
    engine.run_round();
    // Live ids must always reference live nodes with agents.
    for (host::NodeId id : engine.live_ids()) {
      EXPECT_TRUE(engine.is_live(id));
      (void)engine.agent(id);
    }
  }
  EXPECT_EQ(engine.live_count(), 10u);
}

TEST(EngineEdgeTest, CyclonWithMinimalView) {
  CyclonConfig config;
  config.view_size = 1;
  config.shuffle_size = 1;
  CycleEngine engine(EngineConfig{}, {1, 2, 3, 4},
                     std::make_unique<CyclonOverlay>(config), silent_factory(),
                     nullptr);
  engine.run_rounds(10);
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_LE(engine.overlay().neighbors(id).size(), 1u);
  }
}

TEST(EngineEdgeTest, KillingLastLiveNodeLeavesEmptyEngine) {
  CycleEngine engine(EngineConfig{}, {7},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  engine.kill_node(0);
  EXPECT_EQ(engine.live_count(), 0u);
  EXPECT_TRUE(engine.live_ids().empty());
  EXPECT_THROW((void)engine.random_live_node(), std::runtime_error);
  // The emptied engine still runs rounds harmlessly.
  engine.run_rounds(3);
  EXPECT_EQ(engine.live_count(), 0u);
}

TEST(EngineEdgeTest, FullChurnReplacesEveryNodeEachRound) {
  EngineConfig config;
  config.churn_rate = 1.0;
  config.seed = 8;
  CycleEngine engine(config, {1, 2, 3, 4, 5},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     [](rng::Rng&) { return stats::Value{77}; });
  engine.run_rounds(4);
  // Population size is preserved; every survivor is a replacement.
  EXPECT_EQ(engine.live_count(), 5u);
  EXPECT_EQ(engine.nodes_ever(), 5u + 4u * 5u);
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_GE(id, 5u * 4u);  // All original ids churned out long ago.
    EXPECT_EQ(engine.attribute_of(id), 77);
  }
}

// Regression (ISSUE PR5 satellite): host::stochastic_count is deliberately
// unbounded — at churn rates >= 1.0 its probabilistic round-up can exceed
// the live population, and the engines must clamp it at the call site. An
// unclamped count used to kill the freshly spawned replacements of the same
// round, shrinking the population.
TEST(EngineEdgeTest, ChurnRateAboveOneIsClampedToLivePopulation) {
  EngineConfig config;
  config.churn_rate = 1.5;  // Expected replacements: 7.5 of 5 live nodes.
  config.seed = 13;
  CycleEngine engine(config, {1, 2, 3, 4, 5},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     [](rng::Rng&) { return stats::Value{31}; });
  engine.run_rounds(6);
  // Clamped to a full replacement per round: the population neither shrinks
  // nor grows, and exactly live_count() nodes churn each round.
  EXPECT_EQ(engine.live_count(), 5u);
  EXPECT_EQ(engine.nodes_ever(), 5u + 6u * 5u);
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_EQ(engine.attribute_of(id), 31);
  }
}

TEST(EngineEdgeTest, BootstrapWithAllContactsDeadCountsFailedContacts) {
  // A replacement node joining an otherwise-dead system finds no live
  // bootstrap contact: every retry is a failed contact, and the joiner
  // still becomes a functioning member.
  core::SystemConfig config;
  config.overlay = core::OverlayKind::kStaticRandom;
  config.overlay_degree = 3;
  core::Adam2System system(config, {1, 2, 3, 4},
                           [](rng::Rng&) { return stats::Value{5}; });
  // Give the nodes state worth transferring.
  system.run_instance(host::NodeId{0});
  while (system.engine().live_count() > 1) {
    system.engine().kill_node(system.engine().live_ids().front());
  }
  const auto failed_before = system.engine().total_traffic().failed_contacts;
  // Churning the survivor spawns a joiner into an all-dead contact set:
  // every bootstrap retry fails, yet the joiner is a working member.
  system.engine().churn_nodes(1);
  EXPECT_EQ(system.engine().live_count(), 1u);
  EXPECT_GT(system.engine().total_traffic().failed_contacts, failed_before);
  const host::NodeId joiner = system.engine().live_ids().front();
  // No live contact existed, so no estimate could be inherited.
  EXPECT_FALSE(system.agent_of(joiner).estimate().has_value());
}

TEST(EngineEdgeTest, AttributeSourceReceivesWorkingRng) {
  EngineConfig config;
  config.churn_rate = 0.5;
  config.seed = 6;
  bool called = false;
  CycleEngine engine(config, {1, 2, 3, 4},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     [&called](rng::Rng& rng) {
                       called = true;
                       return static_cast<stats::Value>(rng.range(5, 10));
                     });
  engine.run_rounds(3);
  EXPECT_TRUE(called);
  for (host::NodeId id : engine.live_ids()) {
    if (id >= 4) {
      EXPECT_GE(engine.attribute_of(id), 5);
      EXPECT_LE(engine.attribute_of(id), 10);
    }
  }
}

}  // namespace
}  // namespace adam2::sim
