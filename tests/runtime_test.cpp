#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <thread>

#include "core/protocol.hpp"
#include "runtime/cluster.hpp"
#include "runtime/session.hpp"
#include "runtime/transport.hpp"
#include "wire/buffer.hpp"

namespace adam2::runtime {
namespace {

using namespace std::chrono_literals;

// --------------------------------------------------------- ExchangeSession

TEST(ExchangeSessionTest, ArmedSessionIsBusyUntilClosed) {
  ExchangeSession session;
  EXPECT_FALSE(session.busy());
  const auto token = session.next_token();
  session.arm(token, std::chrono::seconds(60));
  EXPECT_TRUE(session.busy());
  EXPECT_TRUE(session.close_if_current(token));
  EXPECT_FALSE(session.busy());
}

TEST(ExchangeSessionTest, StaleTokenIsRejected) {
  ExchangeSession session;
  const auto old_token = session.next_token();
  session.arm(old_token, std::chrono::seconds(60));
  const auto new_token = session.next_token();
  session.arm(new_token, std::chrono::seconds(60));
  // The old exchange was superseded; merging its response would break
  // exchange atomicity.
  EXPECT_FALSE(session.close_if_current(old_token));
  EXPECT_TRUE(session.busy());
  EXPECT_TRUE(session.close_if_current(new_token));
}

TEST(ExchangeSessionTest, DeadlineExpiryUnblocksInitiation) {
  ExchangeSession session;
  const auto token = session.next_token();
  session.arm(token, std::chrono::microseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(session.busy());
  // A late response for the expired exchange still matches until the
  // session is explicitly abandoned or re-armed.
  EXPECT_TRUE(session.close_if_current(token));
}

TEST(ExchangeSessionTest, AbandonDropsTheOpenExchange) {
  ExchangeSession session;
  const auto token = session.next_token();
  session.arm(token, std::chrono::seconds(60));
  session.abandon();
  EXPECT_FALSE(session.busy());
  EXPECT_FALSE(session.close_if_current(token));
}

// ----------------------------------------------------------------- Mailbox

TEST(MailboxTest, PushPopFifo) {
  Mailbox mailbox;
  mailbox.push({EnvelopeKind::kGossipRequest, 1, 0, {}});
  mailbox.push({EnvelopeKind::kGossipResponse, 2, 0, {}});
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  auto first = mailbox.wait_pop(deadline);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->from, 1u);
  auto second = mailbox.wait_pop(deadline);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->from, 2u);
  // Empty: a deadline already passed returns at once.
  EXPECT_FALSE(mailbox.wait_pop(std::chrono::steady_clock::now()).has_value());
}

TEST(MailboxTest, WaitPopTimesOut) {
  Mailbox mailbox;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      mailbox.wait_pop(start + 20ms);
  EXPECT_FALSE(result.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

TEST(MailboxTest, WaitPopWakesOnPush) {
  Mailbox mailbox;
  std::thread producer([&] {
    std::this_thread::sleep_for(5ms);
    mailbox.push({EnvelopeKind::kWakeup, 7, 0, {}});
  });
  const auto result =
      mailbox.wait_pop(std::chrono::steady_clock::now() + 5s);
  producer.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->from, 7u);
}

// ----------------------------------------------------------------- Network

TEST(NetworkTest, RoutesToAttachedMailboxes) {
  Network network;
  Mailbox a;
  Mailbox b;
  network.attach(1, &a);
  network.attach(2, &b);
  EXPECT_TRUE(network.send(2, {EnvelopeKind::kGossipRequest, 1, 0,
                               std::vector<std::byte>(10)}));
  const auto delivered = b.wait_pop(std::chrono::steady_clock::now() + 5s);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->from, 1u);
  EXPECT_EQ(delivered->payload.size(), 10u);
  EXPECT_FALSE(a.wait_pop(std::chrono::steady_clock::now()).has_value());
}

TEST(NetworkTest, DropsToUnknownDestination) {
  Network network;
  Mailbox a;
  network.attach(1, &a);
  EXPECT_FALSE(network.send(9, {EnvelopeKind::kGossipRequest, 1, 0, {}}));
  EXPECT_FALSE(a.wait_pop(std::chrono::steady_clock::now()).has_value());
}

// ----------------------------------------------------------------- Cluster

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<stats::Value>(i + 1);
  }
  return values;
}

ClusterConfig fast_config(std::uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.gossip_period = 1ms;
  config.response_timeout = 100ms;
  return config;
}

host::AgentFactory adam2_factory(core::Adam2Config protocol) {
  return [protocol](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(protocol);
  };
}

TEST(ClusterTest, StartsAndStopsCleanly) {
  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 10;
  Cluster cluster(fast_config(1), iota_values(8), adam2_factory(protocol));
  cluster.start();
  std::this_thread::sleep_for(20ms);
  cluster.stop();
  SUCCEED();
}

TEST(ClusterTest, StopIsIdempotentAndDestructorSafe) {
  core::Adam2Config protocol;
  Cluster cluster(fast_config(2), iota_values(4), adam2_factory(protocol));
  cluster.start();
  cluster.stop();
  cluster.stop();
  // Destructor runs stop() again.
}

TEST(ClusterTest, RunOnNodeExecutesOnOwningThread) {
  core::Adam2Config protocol;
  Cluster cluster(fast_config(4), iota_values(4), adam2_factory(protocol));
  cluster.start();
  std::atomic<int> calls{0};
  const auto main_thread = std::this_thread::get_id();
  cluster.run_on_node(2, [&](host::NodeAgent&, host::AgentContext& ctx) {
    EXPECT_EQ(ctx.self, 2u);
    EXPECT_NE(std::this_thread::get_id(), main_thread);
    ++calls;
  });
  cluster.stop();
  EXPECT_EQ(calls.load(), 1);
}

TEST(ClusterTest, RunOnNodeWorksInlineWhenStopped) {
  core::Adam2Config protocol;
  Cluster cluster(fast_config(5), iota_values(4), adam2_factory(protocol));
  bool called = false;
  cluster.run_on_node(1, [&](host::NodeAgent&, host::AgentContext& ctx) {
    EXPECT_EQ(ctx.self, 1u);
    called = true;
  });
  EXPECT_TRUE(called);
}

TEST(ClusterTest, Adam2ConvergesOnRealThreads) {
  core::Adam2Config protocol;
  protocol.lambda = 8;
  protocol.instance_ttl = 80;
  protocol.bootstrap = core::BootstrapPoints::kUniform;

  // Sized for small CI machines: few threads, relaxed period, so the
  // epidemic spread comfortably outruns the tick-driven TTL even under
  // heavy scheduling contention.
  const std::size_t n = 16;
  ClusterConfig config = fast_config(3);
  config.gossip_period = std::chrono::microseconds(4000);
  Cluster cluster(config, iota_values(n), adam2_factory(protocol));
  cluster.start();

  cluster.run_on_node(0, [](host::NodeAgent& agent, host::AgentContext& ctx) {
    dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });

  // Poll until every node finalised an estimate, with a generous
  // wall-clock cap for slow machines.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::size_t with_estimate = 0;
  std::vector<core::Estimate> estimates;
  while (std::chrono::steady_clock::now() < deadline) {
    with_estimate = 0;
    estimates.clear();
    for (host::NodeId id = 0; id < n; ++id) {
      cluster.run_on_node(id, [&](host::NodeAgent& agent, host::AgentContext&) {
        const auto& a2 = dynamic_cast<core::Adam2Agent&>(agent);
        if (a2.estimate()) {
          ++with_estimate;
          estimates.push_back(*a2.estimate());
        }
      });
    }
    if (with_estimate == n) break;
    std::this_thread::sleep_for(10ms);
  }
  cluster.stop();

  ASSERT_EQ(with_estimate, n);
  for (const core::Estimate& est : estimates) {
    EXPECT_NEAR(est.n_estimate, static_cast<double>(n),
                static_cast<double>(n) * 0.3);
    EXPECT_DOUBLE_EQ(est.min_value, 1.0);
    EXPECT_DOUBLE_EQ(est.max_value, static_cast<double>(n));
    for (const stats::CdfPoint& p : est.points) {
      const double truth =
          std::min(1.0, std::floor(p.t) / static_cast<double>(n));
      EXPECT_NEAR(p.f, truth, 0.15) << "at t=" << p.t;
    }
  }
}

TEST(ClusterTest, TrafficIsAccounted) {
  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 20;
  Cluster cluster(fast_config(6), iota_values(16), adam2_factory(protocol));
  cluster.start();
  wire::InstanceId id;
  cluster.run_on_node(0, [&](host::NodeAgent& agent, host::AgentContext& ctx) {
    id = dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
  std::this_thread::sleep_for(100ms);
  cluster.stop();
  const auto traffic = cluster.total_traffic();
  EXPECT_GT(traffic.on(host::Channel::kAggregation).messages_sent, 10u);
  // Proof of delivery: a node other than the initiator holds the instance,
  // running or finished (the cluster has no join-time bootstrap, so only a
  // delivered message can have brought it).
  std::size_t holders = 0;
  for (host::NodeId node = 1; node < cluster.size(); ++node) {
    cluster.run_on_node(node, [&](host::NodeAgent& agent, host::AgentContext&) {
      const auto& a2 = dynamic_cast<const core::Adam2Agent&>(agent);
      if (a2.instance(id) != nullptr ||
          (a2.estimate() && a2.estimate()->instance == id)) {
        ++holders;
      }
    });
  }
  EXPECT_GT(holders, 0u);
}

void start_instance_on(Cluster& cluster, host::NodeId id) {
  cluster.run_on_node(id, [](host::NodeAgent& agent, host::AgentContext& ctx) {
    dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
}

std::uint64_t aggregation_sent(const Cluster& cluster) {
  return cluster.total_traffic().on(host::Channel::kAggregation).messages_sent;
}

TEST(ClusterTest, GossipsAgainAfterRestart) {
  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 20;
  Cluster cluster(fast_config(7), iota_values(4), adam2_factory(protocol));
  cluster.start();
  std::this_thread::sleep_for(20ms);
  cluster.stop();
  const std::uint64_t before = aggregation_sent(cluster);

  cluster.restart_node(1);
  EXPECT_EQ(cluster.total_traffic().crash_restarts, 1u);  // Added at once.
  cluster.start();
  start_instance_on(cluster, 0);
  std::this_thread::sleep_for(50ms);
  cluster.stop();

  EXPECT_GT(aggregation_sent(cluster), before);
  EXPECT_EQ(cluster.total_traffic().crash_restarts, 1u);
}

// A posted task and stop() wake a node at once, not at its next tick.
TEST(ClusterTest, TasksAndStopDoNotWaitForATick) {
  ClusterConfig config = fast_config(9);
  config.gossip_period = 60s;
  Cluster cluster(config, iota_values(2), adam2_factory(core::Adam2Config{}));
  cluster.start();
  std::this_thread::sleep_for(20ms);  // Let the nodes block in receive.
  const auto start = std::chrono::steady_clock::now();
  cluster.run_on_node(1, [](host::NodeAgent&, host::AgentContext&) {});
  cluster.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

// Reading the totals while the node threads run must not race them (run
// under -DADAM2_SANITIZE=thread), and the final totals cover every read.
TEST(ClusterTest, TotalTrafficWhileRunningIsRaceFree) {
  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 20;
  Cluster cluster(fast_config(8), iota_values(8), adam2_factory(protocol));
  cluster.start();
  start_instance_on(cluster, 0);
  std::uint64_t most_read = 0;
  for (int poll = 0; poll < 50; ++poll) {
    most_read = std::max(most_read, aggregation_sent(cluster));
    std::this_thread::sleep_for(2ms);
  }
  cluster.stop();
  EXPECT_GT(aggregation_sent(cluster), 0u);
  EXPECT_GE(aggregation_sent(cluster), most_read);
}

}  // namespace
}  // namespace adam2::runtime
