#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>

#include "host/pool.hpp"
#include "host/registry.hpp"
#include "sim/cyclon.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

/// Minimal push-pull averaging agent used to exercise the engine's exchange
/// mediation independent of the Adam2 protocol: each node starts with its
/// attribute value and the population should converge to the global mean
/// with total mass conserved exactly.
class AveragingAgent final : public host::NodeAgent {
 public:
  explicit AveragingAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  void on_round_start(host::AgentContext&) override {}

  std::span<const std::byte> make_request(host::AgentContext&) override {
    scratch_ = encode(value_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte> req) override {
    const double theirs = decode(req);
    scratch_ = encode(value_);  // Pre-merge value (symmetric).
    value_ = (value_ + theirs) / 2.0;
    return scratch_;
  }

  void handle_response(host::AgentContext&,
                       std::span<const std::byte> resp) override {
    value_ = (value_ + decode(resp)) / 2.0;
  }

 private:
  static std::vector<std::byte> encode(double v) {
    wire::Writer w;
    w.f64(v);
    return w.take();
  }
  static double decode(std::span<const std::byte> bytes) {
    wire::Reader r(bytes);
    return r.f64();
  }

  double value_;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

host::AgentFactory averaging_factory() {
  return [](const host::AgentContext& ctx) {
    return std::make_unique<AveragingAgent>(static_cast<double>(ctx.attribute));
  };
}

/// Agent that never gossips; used for pure substrate tests.
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

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

EngineConfig config_with_seed(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------------ Engine

TEST(EngineTest, ConstructsRequestedPopulation) {
  CycleEngine engine(config_with_seed(1), iota_values(100),
                     std::make_unique<StaticRandomOverlay>(8), silent_factory(),
                     nullptr);
  EXPECT_EQ(engine.live_count(), 100u);
  EXPECT_EQ(engine.nodes_ever(), 100u);
  EXPECT_EQ(engine.round(), 0u);
}

TEST(EngineTest, AttributesAreAssignedInOrder) {
  CycleEngine engine(config_with_seed(2), {10, 20, 30},
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  EXPECT_EQ(engine.attribute_of(0), 10);
  EXPECT_EQ(engine.attribute_of(1), 20);
  EXPECT_EQ(engine.attribute_of(2), 30);
}

TEST(EngineTest, RoundCounterAdvances) {
  CycleEngine engine(config_with_seed(3), iota_values(10),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  engine.run_rounds(7);
  EXPECT_EQ(engine.round(), 7u);
}

TEST(EngineTest, AveragingConvergesToGlobalMean) {
  const std::size_t n = 256;
  CycleEngine engine(config_with_seed(4), iota_values(n),
                     std::make_unique<StaticRandomOverlay>(10),
                     averaging_factory(), nullptr);
  engine.run_rounds(60);
  const double mean = (static_cast<double>(n) - 1.0) / 2.0;
  for (host::NodeId id : engine.live_ids()) {
    const auto& agent = dynamic_cast<const AveragingAgent&>(engine.agent(id));
    EXPECT_NEAR(agent.value(), mean, 1e-8);
  }
}

TEST(EngineTest, AveragingConservesMassExactly) {
  const std::size_t n = 128;
  CycleEngine engine(config_with_seed(5), iota_values(n),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  auto total = [&] {
    double sum = 0.0;
    for (host::NodeId id : engine.live_ids()) {
      sum += dynamic_cast<const AveragingAgent&>(engine.agent(id)).value();
    }
    return sum;
  };
  const double before = total();
  engine.run_rounds(10);
  EXPECT_NEAR(total(), before, 1e-9 * before);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    CycleEngine engine(config_with_seed(seed), iota_values(64),
                       std::make_unique<StaticRandomOverlay>(6),
                       averaging_factory(), nullptr);
    engine.run_rounds(5);
    std::vector<double> values;
    for (host::NodeId id : engine.live_ids()) {
      values.push_back(
          dynamic_cast<const AveragingAgent&>(engine.agent(id)).value());
    }
    return values;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

TEST(EngineTest, TrafficIsAccountedPerChannelAndGlobally) {
  CycleEngine engine(config_with_seed(6), iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6),
                     averaging_factory(), nullptr);
  engine.run_rounds(3);
  const auto& total = engine.total_traffic();
  const auto& agg = total.on(host::Channel::kAggregation);
  // Every successful exchange = 2 messages (request + response) of 8 bytes.
  EXPECT_GT(agg.messages_sent, 0u);
  EXPECT_EQ(agg.bytes_sent, agg.messages_sent * 8);
  EXPECT_EQ(agg.messages_received, agg.messages_sent);
}

TEST(EngineTest, KillNodeRemovesItFromLiveSet) {
  CycleEngine engine(config_with_seed(8), iota_values(10),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  engine.kill_node(3);
  EXPECT_EQ(engine.live_count(), 9u);
  EXPECT_FALSE(engine.is_live(3));
  const auto live = engine.live_ids();
  EXPECT_EQ(std::count(live.begin(), live.end(), 3u), 0);
}

TEST(EngineTest, ChurnKeepsPopulationSizeConstant) {
  EngineConfig config = config_with_seed(9);
  config.churn_rate = 0.05;
  CycleEngine engine(config, iota_values(200),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), [](rng::Rng& rng) {
                       return static_cast<stats::Value>(rng.below(100));
                     });
  engine.run_rounds(20);
  EXPECT_EQ(engine.live_count(), 200u);
  EXPECT_GT(engine.nodes_ever(), 200u);
  // Roughly 5% of 200 = 10 replacements per round over 20 rounds.
  EXPECT_NEAR(static_cast<double>(engine.nodes_ever() - 200), 200.0, 60.0);
}

TEST(EngineTest, ChurnedInNodesGetFreshIdsAndBirthRounds) {
  EngineConfig config = config_with_seed(10);
  config.churn_rate = 0.1;
  CycleEngine engine(config, iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     [](rng::Rng&) { return stats::Value{7}; });
  engine.run_rounds(5);
  std::set<host::NodeId> seen;
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_TRUE(seen.insert(id).second);  // No duplicates.
    const host::Node& node = engine.node(id);
    if (id >= 50) {
      EXPECT_GT(node.birth_round, 0u);
      EXPECT_EQ(node.attribute, 7);
    }
  }
}

TEST(EngineTest, ChurnRequiresAttributeSource) {
  EngineConfig config = config_with_seed(11);
  config.churn_rate = 0.1;
  EXPECT_THROW(CycleEngine(config, iota_values(10),
                           std::make_unique<StaticRandomOverlay>(4),
                           silent_factory(), nullptr),
               std::invalid_argument);
}

TEST(EngineTest, MessageLossDropsTraffic) {
  EngineConfig lossy = config_with_seed(12);
  lossy.faults.drop_rate = 0.5;
  CycleEngine engine(lossy, iota_values(100),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  engine.run_rounds(5);
  EXPECT_GT(engine.total_traffic().dropped_messages, 50u);
}

TEST(EngineTest, MessageLossBreaksExactMassConservation) {
  // A dropped response leaves the responder merged but not the requester —
  // the asymmetry a real deployment would see.
  EngineConfig lossy = config_with_seed(13);
  lossy.faults.drop_rate = 0.3;
  CycleEngine engine(lossy, iota_values(64),
                     std::make_unique<StaticRandomOverlay>(8),
                     averaging_factory(), nullptr);
  auto total = [&] {
    double sum = 0.0;
    for (host::NodeId id : engine.live_ids()) {
      sum += dynamic_cast<const AveragingAgent&>(engine.agent(id)).value();
    }
    return sum;
  };
  const double before = total();
  engine.run_rounds(10);
  EXPECT_NE(total(), before);
}

TEST(EngineTest, SetAttributeChangesGroundTruth) {
  CycleEngine engine(config_with_seed(14), iota_values(5),
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  engine.set_attribute(2, 999);
  EXPECT_EQ(engine.attribute_of(2), 999);
  const auto values = engine.live_attribute_values();
  EXPECT_EQ(std::count(values.begin(), values.end(), 999), 1);
}

TEST(EngineTest, UnknownNodeThrows) {
  CycleEngine engine(config_with_seed(15), iota_values(3),
                     std::make_unique<StaticRandomOverlay>(2), silent_factory(),
                     nullptr);
  EXPECT_THROW((void)engine.node(99), std::out_of_range);
  EXPECT_FALSE(engine.is_live(99));
}

// ----------------------------------------------------- StaticRandomOverlay

TEST(StaticOverlayTest, DegreeMustBePositive) {
  EXPECT_THROW((void)StaticRandomOverlay(0), std::invalid_argument);
  EXPECT_NO_THROW((void)StaticRandomOverlay(1));
}

TEST(StaticOverlayTest, InitialGraphIsConnected) {
  CycleEngine engine(config_with_seed(16), iota_values(500),
                     std::make_unique<StaticRandomOverlay>(8), silent_factory(),
                     nullptr);
  // BFS over neighbour lists from node 0.
  std::set<host::NodeId> visited{0};
  std::queue<host::NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const host::NodeId current = frontier.front();
    frontier.pop();
    for (host::NodeId next : engine.overlay().neighbors(current)) {
      if (visited.insert(next).second) frontier.push(next);
    }
  }
  EXPECT_EQ(visited.size(), 500u);
}

TEST(StaticOverlayTest, DegreesAreNearTarget) {
  CycleEngine engine(config_with_seed(17), iota_values(1000),
                     std::make_unique<StaticRandomOverlay>(10),
                     silent_factory(), nullptr);
  double total_degree = 0.0;
  for (host::NodeId id : engine.live_ids()) {
    total_degree += static_cast<double>(engine.overlay().neighbors(id).size());
  }
  EXPECT_NEAR(total_degree / 1000.0, 10.0, 2.5);
}

TEST(StaticOverlayTest, PickGossipTargetReturnsNeighbour) {
  CycleEngine engine(config_with_seed(18), iota_values(100),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     nullptr);
  rng::Rng rng(1);
  for (host::NodeId id :
       {host::NodeId{0}, host::NodeId{50}, host::NodeId{99}}) {
    const auto neighbors = engine.overlay().neighbors(id);
    for (int i = 0; i < 20; ++i) {
      const auto target = engine.overlay().pick_gossip_target(id, rng);
      ASSERT_TRUE(target.has_value());
      EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), *target),
                neighbors.end());
    }
  }
}

TEST(StaticOverlayTest, RemoveNodeDropsReverseLinks) {
  StaticRandomOverlay overlay(4);
  CycleEngine engine(config_with_seed(19), iota_values(20),
                     std::make_unique<StaticRandomOverlay>(4), silent_factory(),
                     nullptr);
  const auto victims = engine.overlay().neighbors(0);
  ASSERT_FALSE(victims.empty());
  const host::NodeId victim = victims.front();
  engine.kill_node(victim);
  const auto after = engine.overlay().neighbors(0);
  EXPECT_EQ(std::count(after.begin(), after.end(), victim), 0);
}

TEST(StaticOverlayTest, KnownAttributeValuesComeFromLiveNeighbours) {
  CycleEngine engine(config_with_seed(20), iota_values(50),
                     std::make_unique<StaticRandomOverlay>(6), silent_factory(),
                     nullptr);
  const auto values = engine.overlay().known_attribute_values(0, engine);
  EXPECT_FALSE(values.empty());
  for (stats::Value v : values) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

// -------------------------------------------------------------- Cyclon

std::unique_ptr<CyclonOverlay> make_cyclon(std::size_t view = 8,
                                           std::size_t shuffle = 4) {
  CyclonConfig config;
  config.view_size = view;
  config.shuffle_size = shuffle;
  return std::make_unique<CyclonOverlay>(config);
}

TEST(CyclonTest, SizesOutsideTheSlotMaskAreRefused) {
  // Views hold at most 64 entries (64-bit slot masks), and a shuffle sends
  // between one entry and a full view.
  EXPECT_THROW((void)make_cyclon(0, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)make_cyclon(1, 1));
  EXPECT_NO_THROW((void)make_cyclon(64, 8));
  EXPECT_THROW((void)make_cyclon(65, 8), std::invalid_argument);
  EXPECT_THROW((void)make_cyclon(8, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)make_cyclon(8, 8));
  EXPECT_THROW((void)make_cyclon(8, 9), std::invalid_argument);
}

TEST(CyclonTest, ViewsRespectCapacity) {
  CycleEngine engine(config_with_seed(21), iota_values(200), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(10);
  for (host::NodeId id : engine.live_ids()) {
    EXPECT_LE(engine.overlay().neighbors(id).size(), 8u);
    EXPECT_GE(engine.overlay().neighbors(id).size(), 1u);
  }
}

TEST(CyclonTest, ViewsContainNoSelfOrDuplicates) {
  CycleEngine engine(config_with_seed(22), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(15);
  for (host::NodeId id : engine.live_ids()) {
    const auto neighbors = engine.overlay().neighbors(id);
    const std::set<host::NodeId> unique(neighbors.begin(), neighbors.end());
    EXPECT_EQ(unique.size(), neighbors.size());
    EXPECT_EQ(unique.count(id), 0u);
  }
}

TEST(CyclonTest, ShufflingMixesViews) {
  CycleEngine engine(config_with_seed(23), iota_values(200), make_cyclon(),
                     silent_factory(), nullptr);
  const auto before = engine.overlay().neighbors(0);
  engine.run_rounds(20);
  const auto after = engine.overlay().neighbors(0);
  // After 20 shuffles the view should have turned over substantially.
  std::size_t kept = 0;
  for (host::NodeId id : after) {
    kept += std::count(before.begin(), before.end(), id);
  }
  EXPECT_LT(kept, before.size());
}

TEST(CyclonTest, GraphStaysConnectedUnderChurn) {
  EngineConfig config = config_with_seed(24);
  config.churn_rate = 0.01;
  CycleEngine engine(config, iota_values(300), make_cyclon(12, 6),
                     silent_factory(),
                     [](rng::Rng& rng) {
                       return static_cast<stats::Value>(rng.below(1000));
                     });
  engine.run_rounds(50);
  // BFS over the (directed) views, treating edges as undirected.
  std::map<host::NodeId, std::vector<host::NodeId>> undirected;
  for (host::NodeId id : engine.live_ids()) {
    for (host::NodeId peer : engine.overlay().neighbors(id)) {
      if (!engine.is_live(peer)) continue;
      undirected[id].push_back(peer);
      undirected[peer].push_back(id);
    }
  }
  const host::NodeId start = engine.live_ids().front();
  std::set<host::NodeId> visited{start};
  std::queue<host::NodeId> frontier;
  frontier.push(start);
  while (!frontier.empty()) {
    const host::NodeId current = frontier.front();
    frontier.pop();
    for (host::NodeId next : undirected[current]) {
      if (visited.insert(next).second) frontier.push(next);
    }
  }
  EXPECT_GT(static_cast<double>(visited.size()),
            0.99 * static_cast<double>(engine.live_count()));
}

TEST(CyclonTest, DeadEntriesAreEventuallyEvicted) {
  CycleEngine engine(config_with_seed(25), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(5);
  engine.kill_node(42);
  engine.run_rounds(30);
  for (host::NodeId id : engine.live_ids()) {
    const auto neighbors = engine.overlay().neighbors(id);
    EXPECT_EQ(
        std::count(neighbors.begin(), neighbors.end(), host::NodeId{42}), 0)
        << "node " << id << " still references the dead node";
  }
}

TEST(CyclonTest, DescriptorsCarryAttributeValues) {
  CycleEngine engine(config_with_seed(26), iota_values(100), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(10);
  const auto values = engine.overlay().known_attribute_values(0, engine);
  EXPECT_GT(values.size(), 8u);  // View plus the shuffle value cache.
  for (stats::Value v : values) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(CyclonTest, ShuffleTrafficIsAccountedOnOverlayChannel) {
  CycleEngine engine(config_with_seed(27), iota_values(50), make_cyclon(),
                     silent_factory(), nullptr);
  engine.run_rounds(3);
  const auto& overlay_traffic =
      engine.total_traffic().on(host::Channel::kOverlay);
  EXPECT_GT(overlay_traffic.messages_sent, 0u);
  EXPECT_EQ(
      engine.total_traffic().on(host::Channel::kAggregation).messages_sent,
      0u);
}

// Block-level cases, on a host whose live set the test edits directly.

/// Nodes `ids` are live, each with ten times its id as its attribute;
/// traffic goes nowhere.
class ListHost final : public host::HostView {
 public:
  explicit ListHost(std::vector<host::NodeId> ids) : live(std::move(ids)) {}

  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return std::ranges::find(live, id) != live.end();
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return static_cast<stats::Value>(10 * id);
  }
  [[nodiscard]] host::Round round() const override { return 0; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return live;
  }
  void record_traffic(host::Channel, std::size_t) override {}

  std::vector<host::NodeId> live;
};

std::vector<host::NodeId> first_ids(std::size_t n) {
  std::vector<host::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(CyclonTest, ANewcomerInADepartedNodesBlockHoldsOnlyWhatItWasGiven) {
  ListHost host(first_ids(10));
  CyclonOverlay overlay(
      {.view_size = 4, .shuffle_size = 2, .value_cache_size = 16});
  rng::Rng rng(7);
  overlay.build_initial(host.live, host, rng);
  for (int i = 0; i < 5; ++i) overlay.maintain(host, rng);
  // Both departing nodes hold entries and cached values.
  for (host::NodeId id : {3, 5}) {
    ASSERT_FALSE(overlay.neighbors(id).empty());
    ASSERT_GT(overlay.known_attribute_values(id, host).size(),
              overlay.neighbors(id).size());
    overlay.remove_node(id);
    std::erase(host.live, id);
  }

  // Joining with no other live node, node 10 is given nothing at all.
  const ListHost alone({10});
  overlay.add_node(10, alone, rng);
  EXPECT_TRUE(overlay.neighbors(10).empty());
  EXPECT_TRUE(overlay.known_attribute_values(10, alone).empty());

  // Joining through a contact, node 11 holds a view and no cached value.
  host.live.push_back(11);
  overlay.add_node(11, host, rng);
  std::vector<stats::Value> view_values;
  for (host::NodeId peer : overlay.neighbors(11)) {
    view_values.push_back(host.attribute_of(peer));
  }
  EXPECT_FALSE(view_values.empty());
  EXPECT_EQ(overlay.known_attribute_values(11, host), view_values);
}

TEST(CyclonTest, AValueCacheOfSizeKKeepsTheNewestKValues) {
  // The cache feeds no draw, so every cache size sees the same shuffles; a
  // cache large enough to drop nothing holds every value each node saw.
  const auto known_after_five_rounds = [](std::size_t cache_size) {
    ListHost host(first_ids(16));
    CyclonOverlay overlay(
        {.view_size = 4, .shuffle_size = 2, .value_cache_size = cache_size});
    rng::Rng rng(11);
    overlay.build_initial(host.live, host, rng);
    for (int i = 0; i < 5; ++i) overlay.maintain(host, rng);
    std::vector<std::vector<stats::Value>> known;
    for (host::NodeId id : host.live) {
      known.push_back(overlay.known_attribute_values(id, host));
      EXPECT_EQ(overlay.neighbors(id).size(), 4u);
    }
    return known;
  };
  const auto everything = known_after_five_rounds(512);
  for (std::size_t cache_size : {0, 1, 3}) {
    const auto known = known_after_five_rounds(cache_size);
    for (std::size_t id = 0; id < known.size(); ++id) {
      const auto& all = everything[id];
      ASSERT_GT(all.size(), 4 + cache_size) << "node " << id;
      // The view's four entries, then the newest `cache_size` values.
      std::vector<stats::Value> expected(all.begin(), all.begin() + 4);
      expected.insert(expected.end(), all.end() - cache_size, all.end());
      EXPECT_EQ(known[id], expected)
          << "cache size " << cache_size << ", node " << id;
    }
  }
}

TEST(CyclonTest, SaveRestoreSaveAfterChurnIsByteIdentical) {
  const CyclonConfig config{.view_size = 5, .shuffle_size = 3,
                            .value_cache_size = 7};
  ListHost host(first_ids(12));
  CyclonOverlay overlay(config);
  rng::Rng rng(3);
  overlay.build_initial(host.live, host, rng);
  for (int i = 0; i < 3; ++i) overlay.maintain(host, rng);
  // Three departures, then three newcomers in the freed blocks, which the
  // pool hands back last-freed first: blocks no longer follow ids.
  for (host::NodeId id : {2, 7, 4}) {
    overlay.remove_node(id);
    std::erase(host.live, id);
  }
  for (host::NodeId id : {12, 13, 14}) {
    host.live.push_back(id);
    overlay.add_node(id, host, rng);
  }
  for (int i = 0; i < 3; ++i) overlay.maintain(host, rng);
  wire::Writer saved;
  overlay.save_state(saved);

  host::NodeTable table;
  for (host::NodeId id = 0; id < 15; ++id) {
    (void)table.restore_node(host.attribute_of(id), 0, host.is_live(id));
  }
  table.finish_restore(host.live);
  CyclonOverlay restored(config);
  wire::Reader in(saved.view());
  restored.restore_state(in, table);
  wire::Writer resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved.take(), saved.take());
}

/// A ListHost that counts the overlay messages and bytes it is told of.
class CountingHost final : public host::HostView {
 public:
  explicit CountingHost(std::vector<host::NodeId> ids) : list(std::move(ids)) {}

  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return list.is_live(id);
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return list.attribute_of(id);
  }
  [[nodiscard]] host::Round round() const override { return 0; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return list.live;
  }
  void record_traffic(host::Channel channel, std::size_t size) override {
    ASSERT_EQ(channel, host::Channel::kOverlay);
    ++messages;
    bytes += size;
  }

  ListHost list;
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

// Maintenance on an 8-worker pool equals the one-worker pass: the same
// views, value caches and overlay traffic after every round, through
// departures that leave dead entries to evict and views that are not full.
TEST(CyclonPoolTest, PooledMaintenanceEqualsInline) {
  const CyclonConfig config{.view_size = 6, .shuffle_size = 3,
                            .value_cache_size = 5};
  CountingHost inline_host(first_ids(60));
  CountingHost pooled_host(first_ids(60));
  CyclonOverlay inline_overlay(config);
  CyclonOverlay pooled_overlay(config);
  rng::Rng inline_rng(21);
  rng::Rng pooled_rng(21);
  inline_overlay.build_initial(inline_host.live_ids(), inline_host,
                               inline_rng);
  pooled_overlay.build_initial(pooled_host.live_ids(), pooled_host,
                               pooled_rng);
  host::WorkerPool one(1);
  host::WorkerPool eight(8);
  rng::Rng churn(5);
  host::NodeId next_id = 60;
  bool saw_dead_entry = false;
  bool saw_eviction = false;
  bool saw_partial_view = false;
  for (int round = 0; round < 30; ++round) {
    for (const host::NodeId id : inline_host.list.live) {
      for (const host::NodeId peer : inline_overlay.neighbors(id)) {
        saw_dead_entry = saw_dead_entry || !inline_host.is_live(peer);
      }
    }
    const std::size_t messages_before = inline_host.messages;
    inline_overlay.maintain(inline_host, inline_rng, one);
    pooled_overlay.maintain(pooled_host, pooled_rng, eight);
    // A shuffle sends two messages; an eviction sends none.
    saw_eviction = saw_eviction || inline_host.messages - messages_before <
                                       2 * inline_host.list.live.size();
    for (const host::NodeId id : inline_host.list.live) {
      saw_partial_view = saw_partial_view ||
                         inline_overlay.neighbors(id).size() < config.view_size;
    }

    wire::Writer inline_state;
    wire::Writer pooled_state;
    inline_overlay.save_state(inline_state);
    pooled_overlay.save_state(pooled_state);
    ASSERT_EQ(pooled_state.take(), inline_state.take()) << "round " << round;
    ASSERT_EQ(pooled_host.messages, inline_host.messages) << "round " << round;
    ASSERT_EQ(pooled_host.bytes, inline_host.bytes) << "round " << round;

    // Four departures and four newcomers, the same on both sides.
    for (int k = 0; k < 4; ++k) {
      const host::NodeId victim =
          inline_host.list.live[churn.below(inline_host.list.live.size())];
      for (CountingHost* host : {&inline_host, &pooled_host}) {
        std::erase(host->list.live, victim);
      }
      inline_overlay.remove_node(victim);
      pooled_overlay.remove_node(victim);
    }
    for (int k = 0; k < 4; ++k, ++next_id) {
      inline_host.list.live.push_back(next_id);
      pooled_host.list.live.push_back(next_id);
      inline_overlay.add_node(next_id, inline_host, inline_rng);
      pooled_overlay.add_node(next_id, pooled_host, pooled_rng);
    }
  }
  EXPECT_TRUE(saw_dead_entry);
  EXPECT_TRUE(saw_eviction);
  EXPECT_TRUE(saw_partial_view);
}

}  // namespace
}  // namespace adam2::sim
