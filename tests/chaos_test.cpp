// Chaos harness: the full Adam2 stack swept across deterministic fault
// matrices (ISSUE PR5; DESIGN.md §8). Every run asserts the protocol's
// safety invariants under hostile networks:
//
//  * estimates stay finite, inside [0, 1], and monotone;
//  * no exchange-session leaks — every instance terminates via its TTL and
//    leaves no active state behind, whatever was dropped, duplicated,
//    corrupted, partitioned, or crash-restarted mid-flight;
//  * corrupted wire bytes are rejected by the validation walk, never crash
//    an agent and are never silently merged (the mutant corpus in wire_test
//    covers the same property exhaustively at the codec level);
//  * accuracy (Errm / Erra against ground truth) degrades monotonically as
//    the loss rate rises — faults hurt, they must not corrupt;
//  * fault schedules replay bit-identically, serial or sharded;
//  * an all-zero plan is golden: bit-identical to a run with no fault layer;
//  * a crash-restart is warm or cold as the plan says, on every substrate.
//
// Tests here carry the `chaos` ctest label so CI can run the matrix under
// sanitizers: ctest -L chaos.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "core/system.hpp"
#include "host/fault.hpp"
#include "obs/recorder.hpp"
#include "runtime/cluster.hpp"
#include "runtime/peer.hpp"
#include "runtime/udp.hpp"
#include "sim/async_engine.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/overlay.hpp"

namespace adam2 {
namespace {

using namespace std::chrono_literals;

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

host::AttributeSource churn_source() {
  return [](rng::Rng& rng) { return static_cast<stats::Value>(rng.below(1000)); };
}

core::SystemConfig chaos_config(std::size_t threads = 0) {
  core::SystemConfig config;
  config.engine.seed = 0xc4a05;
  config.engine.churn_rate = 0.005;
  config.protocol.lambda = 16;
  config.protocol.instance_ttl = 20;
  config.protocol.verification_points = 8;
  config.engine_threads = threads;
  return config;
}

/// Every completed estimate must be a plausible CDF whatever the network
/// did: finite knots, fractions inside [0, 1], monotone non-decreasing.
void expect_sane_estimates(core::Adam2System& system) {
  const auto live = system.engine().live_ids();
  const std::vector<host::NodeId> ids(live.begin(), live.end());
  std::size_t with_estimate = 0;
  for (host::NodeId id : ids) {
    const auto& estimate = system.agent_of(id).estimate();
    if (!estimate) continue;
    ++with_estimate;
    double prev = 0.0;
    for (const stats::CdfPoint& knot : estimate->cdf.knots()) {
      ASSERT_TRUE(std::isfinite(knot.t)) << "node " << id;
      ASSERT_TRUE(std::isfinite(knot.f)) << "node " << id;
      ASSERT_GE(knot.f, 0.0) << "node " << id;
      ASSERT_LE(knot.f, 1.0) << "node " << id;
      ASSERT_GE(knot.f, prev) << "node " << id << " at t=" << knot.t;
      prev = knot.f;
    }
  }
  // Faults degrade coverage but must not wipe it out at these rates.
  EXPECT_GT(with_estimate, ids.size() / 2);
}

struct ChaosReport {
  core::PopulationErrors errors;
  host::TrafficStats traffic;
  std::size_t leaked_sessions = 0;
};

ChaosReport run_chaos(const host::FaultPlan& faults, std::size_t threads = 0) {
  core::SystemConfig config = chaos_config(threads);
  config.engine.faults = faults;
  core::Adam2System system(config, iota_values(350), churn_source());
  system.run_instance();
  expect_sane_estimates(system);

  ChaosReport report;
  report.errors = system.errors();
  // The TTL is the session-recovery mechanism: by now every node must have
  // finalised (or crash-lost) the instance. Two slack rounds let stragglers
  // that joined through a delayed payload burn their remaining TTL copies.
  system.run_rounds(2);
  const auto live = system.engine().live_ids();
  for (host::NodeId id : std::vector<host::NodeId>(live.begin(), live.end())) {
    report.leaked_sessions += system.agent_of(id).active_instance_count();
  }
  report.traffic = system.engine().total_traffic();
  return report;
}

TEST(ChaosTest, ZeroRatePlanIsGoldenIdenticalToBaseline) {
  host::FaultPlan zero;
  zero.seed = 0xdeadbeef;  // A different fault seed must be invisible too.
  const ChaosReport base = run_chaos(host::FaultPlan{});
  const ChaosReport zeroed = run_chaos(zero);
  EXPECT_EQ(base.errors.max_err, zeroed.errors.max_err);
  EXPECT_EQ(base.errors.avg_err, zeroed.errors.avg_err);
  EXPECT_EQ(base.errors.peers, zeroed.errors.peers);
  EXPECT_EQ(base.errors.missing, zeroed.errors.missing);
  EXPECT_EQ(base.traffic.total_bytes_sent(), zeroed.traffic.total_bytes_sent());
  EXPECT_EQ(base.traffic.dropped_messages, zeroed.traffic.dropped_messages);
  EXPECT_EQ(zeroed.traffic.corrupted_messages, 0u);
  EXPECT_EQ(zeroed.traffic.crash_restarts, 0u);
}

TEST(ChaosTest, FaultMatrixPreservesInvariants) {
  struct Case {
    const char* name;
    host::FaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case c{"drop", {}};
    c.plan.drop_rate = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"duplicate", {}};
    c.plan.duplicate_rate = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"corrupt", {}};
    c.plan.corrupt_rate = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"crash", {}};
    c.plan.crash_rate = 0.02;
    cases.push_back(c);
  }
  {
    Case c{"partition", {}};
    c.plan.partition_count = 2;
    c.plan.partition_start = 4;
    c.plan.partition_heal_after = 8;
    cases.push_back(c);
  }
  {
    Case c{"everything", {}};
    c.plan.drop_rate = 0.15;
    c.plan.duplicate_rate = 0.1;
    c.plan.corrupt_rate = 0.1;
    c.plan.crash_rate = 0.01;
    c.plan.partition_count = 2;
    c.plan.partition_start = 3;
    c.plan.partition_heal_after = 6;
    cases.push_back(c);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ChaosReport report = run_chaos(c.plan);
    EXPECT_TRUE(std::isfinite(report.errors.max_err));
    EXPECT_GE(report.errors.max_err, 0.0);
    EXPECT_LE(report.errors.max_err, 1.0);
    EXPECT_LE(report.errors.avg_err, report.errors.max_err + 1e-12);
    EXPECT_EQ(report.leaked_sessions, 0u);
    if (c.plan.drop_rate > 0.0) {
      EXPECT_GT(report.traffic.dropped_messages, 0u);
    }
    if (c.plan.duplicate_rate > 0.0) {
      EXPECT_GT(report.traffic.duplicated_messages, 0u);
    }
    if (c.plan.corrupt_rate > 0.0) {
      EXPECT_GT(report.traffic.corrupted_messages, 0u);
    }
    if (c.plan.crash_rate > 0.0) {
      EXPECT_GT(report.traffic.crash_restarts, 0u);
    }
    if (c.plan.partition_count > 1) {
      EXPECT_GT(report.traffic.partitioned_messages, 0u);
    }
  }
}

TEST(ChaosTest, FaultScheduleReplaysBitIdentically) {
  host::FaultPlan plan;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.crash_rate = 0.01;
  const ChaosReport first = run_chaos(plan);
  const ChaosReport second = run_chaos(plan);
  EXPECT_EQ(first.errors.max_err, second.errors.max_err);
  EXPECT_EQ(first.errors.avg_err, second.errors.avg_err);
  EXPECT_EQ(first.errors.missing, second.errors.missing);
  EXPECT_EQ(first.traffic.dropped_messages, second.traffic.dropped_messages);
  EXPECT_EQ(first.traffic.corrupted_messages,
            second.traffic.corrupted_messages);
  EXPECT_EQ(first.traffic.crash_restarts, second.traffic.crash_restarts);
}

// Full-stack parallel determinism under faults: the sharded engine must
// produce the same population errors as the serial engine round for round.
// (parallel_engine_test checks the same property at the raw agent level.)
TEST(ChaosTest, ParallelEngineMatchesSerialUnderFaults) {
  host::FaultPlan plan;
  plan.drop_rate = 0.15;
  plan.duplicate_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.crash_rate = 0.01;
  plan.partition_count = 2;
  plan.partition_start = 5;
  plan.partition_heal_after = 5;
  const ChaosReport serial = run_chaos(plan, 0);
  for (std::size_t threads : {2u, 8u}) {
    const ChaosReport parallel = run_chaos(plan, threads);
    EXPECT_EQ(serial.errors.max_err, parallel.errors.max_err) << threads;
    EXPECT_EQ(serial.errors.avg_err, parallel.errors.avg_err) << threads;
    EXPECT_EQ(serial.errors.missing, parallel.errors.missing) << threads;
    EXPECT_EQ(serial.traffic.dropped_messages,
              parallel.traffic.dropped_messages)
        << threads;
    EXPECT_EQ(serial.traffic.crash_restarts, parallel.traffic.crash_restarts)
        << threads;
  }
}

// Faults must hurt accuracy, not corrupt it: Errm/Erra degrade (weakly)
// monotonically as the drop rate rises. The small slack absorbs the
// stochastic wobble of individual schedules; the end-to-end spread must be
// genuine.
TEST(ChaosTest, AccuracyDegradesMonotonicallyWithLossRate) {
  std::vector<double> avg_errs;
  std::vector<double> max_errs;
  for (double rate : {0.0, 0.3, 0.6}) {
    host::FaultPlan plan;
    plan.drop_rate = rate;
    const ChaosReport report = run_chaos(plan);
    avg_errs.push_back(report.errors.avg_err);
    max_errs.push_back(report.errors.max_err);
  }
  const double slack = 0.01;
  EXPECT_LE(avg_errs[0], avg_errs[1] + slack);
  EXPECT_LE(avg_errs[1], avg_errs[2] + slack);
  EXPECT_LE(max_errs[0], max_errs[1] + slack);
  EXPECT_LE(max_errs[1], max_errs[2] + slack);
  EXPECT_GT(avg_errs[2], avg_errs[0]);
}

// The event-driven engine expresses the full taxonomy, including bounded
// extra delay, which reorders deliveries through the event queue. The run
// must complete with sane estimates and populated fault counters.
TEST(ChaosTest, AsyncEngineSurvivesTheFullTaxonomy) {
  sim::AsyncConfig config;
  config.seed = 0xa5c;
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.1;
  config.faults.corrupt_rate = 0.15;
  config.faults.delay_rate = 0.3;
  config.faults.max_delay = 0.5;
  config.faults.crash_rate = 0.002;

  core::Adam2Config protocol;
  protocol.lambda = 12;
  protocol.instance_ttl = 30;
  auto factory = [protocol](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(protocol);
  };
  sim::AsyncEngine engine(config, iota_values(128),
                          std::make_unique<sim::StaticRandomOverlay>(8),
                          factory, nullptr);
  {
    const host::NodeId initiator = engine.live_ids()[0];
    auto ctx = engine.context_for(initiator);
    (void)dynamic_cast<core::Adam2Agent&>(engine.agent(initiator))
        .start_instance(ctx);
  }
  engine.run_until(45.0);

  const host::TrafficStats& traffic = engine.total_traffic();
  EXPECT_GT(traffic.dropped_messages, 0u);
  EXPECT_GT(traffic.duplicated_messages, 0u);
  EXPECT_GT(traffic.corrupted_messages, 0u);
  EXPECT_GT(traffic.delayed_messages, 0u);
  std::size_t with_estimate = 0;
  for (host::NodeId id : engine.live_ids()) {
    const auto& agent = dynamic_cast<core::Adam2Agent&>(engine.agent(id));
    if (!agent.estimate()) continue;
    ++with_estimate;
    double prev = 0.0;
    for (const stats::CdfPoint& knot : agent.estimate()->cdf.knots()) {
      ASSERT_TRUE(std::isfinite(knot.f));
      ASSERT_GE(knot.f, prev - 1e-12);
      prev = knot.f;
    }
  }
  EXPECT_GT(with_estimate, engine.live_count() / 2);
}

TEST(ChaosTest, AsyncZeroRatePlanIsGoldenIdentical) {
  const auto run = [](const host::FaultPlan& faults) {
    sim::AsyncConfig config;
    config.seed = 0x9a7;
    config.faults = faults;
    core::Adam2Config protocol;
    protocol.lambda = 10;
    protocol.instance_ttl = 20;
    auto factory = [protocol](const host::AgentContext&) {
      return std::make_unique<core::Adam2Agent>(protocol);
    };
    sim::AsyncEngine engine(config, iota_values(64),
                            std::make_unique<sim::StaticRandomOverlay>(6),
                            factory, nullptr);
    engine.run_until(25.0);
    return engine.total_traffic();
  };
  host::FaultPlan zero;
  zero.seed = 0x5eed5eed;
  const host::TrafficStats base = run(host::FaultPlan{});
  const host::TrafficStats zeroed = run(zero);
  EXPECT_EQ(base.total_bytes_sent(), zeroed.total_bytes_sent());
  EXPECT_EQ(base.on(host::Channel::kAggregation).messages_sent,
            zeroed.on(host::Channel::kAggregation).messages_sent);
  EXPECT_EQ(base.dropped_messages, zeroed.dropped_messages);
  EXPECT_EQ(zeroed.corrupted_messages, 0u);
}

// Faulty transport against real threads and mailboxes: the cluster must run,
// count every injected fault, and stop cleanly — corrupted payloads cross a
// genuine thread boundary before hitting the validation walk.
TEST(ChaosTest, ClusterSurvivesFaultyTransport) {
  runtime::ClusterConfig config;
  config.seed = 21;
  config.gossip_period = 1ms;
  config.response_timeout = 20ms;
  config.faults.drop_rate = 0.2;
  config.faults.duplicate_rate = 0.2;
  config.faults.corrupt_rate = 0.2;

  core::Adam2Config protocol;
  protocol.lambda = 6;
  protocol.instance_ttl = 60;
  runtime::Cluster cluster(config, iota_values(12),
                           [protocol](const host::AgentContext&) {
                             return std::make_unique<core::Adam2Agent>(protocol);
                           });
  cluster.start();
  cluster.run_on_node(0, [](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
  std::this_thread::sleep_for(300ms);
  cluster.stop();

  const host::TrafficStats traffic = cluster.total_traffic();
  EXPECT_GT(traffic.dropped_messages, 0u);
  EXPECT_GT(traffic.duplicated_messages, 0u);
  EXPECT_GT(traffic.corrupted_messages, 0u);
}

// Real UDP sockets: corrupted datagrams cross the kernel; whatever survives
// envelope framing is rejected by the message validation walk, and the
// injected faults surface in the shared traffic ledger at stop().
TEST(ChaosTest, UdpPeersSurviveCorruptDatagrams) {
  constexpr std::size_t kPeers = 6;
  std::vector<stats::Value> values;
  for (std::size_t i = 0; i < kPeers; ++i) {
    values.push_back(static_cast<stats::Value>((i + 1) * 10));
  }
  std::vector<std::unique_ptr<runtime::UdpEndpoint>> endpoints;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints.push_back(std::make_unique<runtime::UdpEndpoint>());
    ports.push_back(endpoints.back()->port());
  }
  runtime::Directory directory(values);

  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 50;
  runtime::ClusterConfig config;
  config.gossip_period = 2ms;
  config.response_timeout = 20ms;
  config.seed = 5;
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.2;
  config.faults.corrupt_rate = 0.4;

  std::vector<std::unique_ptr<runtime::Peer>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints[i]->connect(directory, ports);
    peers.push_back(std::make_unique<runtime::Peer>(
        config, static_cast<host::NodeId>(i), directory, *endpoints[i],
        [protocol](const host::AgentContext&) {
          return std::make_unique<core::Adam2Agent>(protocol);
        }));
  }
  for (auto& peer : peers) peer->start();
  peers[0]->run_on_peer([](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
  std::this_thread::sleep_for(300ms);
  for (auto& peer : peers) peer->stop();

  const host::TrafficStats traffic = directory.traffic();
  EXPECT_GT(traffic.corrupted_messages, 0u);
  EXPECT_GT(traffic.duplicated_messages, 0u);
  EXPECT_GT(traffic.dropped_messages, 0u);
}

// -- Warm crash-restart (host::snapshot, DESIGN.md §12) -----------------------
// A crashed node restarted with `warm_restart` carries its protocol state
// across through the snapshot hooks, so it rejoins its running instances
// instead of starting from scratch. The port's token counter survives the
// crash, so the node's first post-rejoin initiation uses a fresh token and
// is ACCEPTED by the swarm — pre-crash stragglers are the ones rejected as
// stale, never the new exchanges (no stale-token NACK storm). The crash
// itself must surface exactly once in the crash_restarts ledger.

TEST(ChaosTest, ClusterWarmRestartRejoinsUnderFaults) {
  runtime::ClusterConfig config;
  config.seed = 33;
  config.gossip_period = 1ms;
  config.response_timeout = 20ms;
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.15;
  config.faults.corrupt_rate = 0.15;
  config.faults.warm_restart = true;

  core::Adam2Config protocol;
  protocol.lambda = 6;
  protocol.instance_ttl = 5000;  // Outlives the test: instances stay active.
  runtime::Cluster cluster(config, iota_values(12),
                           [protocol](const host::AgentContext&) {
                             return std::make_unique<core::Adam2Agent>(protocol);
                           });
  cluster.start();
  cluster.run_on_node(0, [](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });

  const auto instances_on = [&cluster](host::NodeId id) {
    std::size_t count = 0;
    cluster.run_on_node(id,
                        [&count](host::NodeAgent& agent, host::AgentContext&) {
                          count = dynamic_cast<core::Adam2Agent&>(agent)
                                      .active_instance_count();
                        });
    return count;
  };
  const auto wait_for_instances = [&](host::NodeId id, std::size_t want) {
    for (int i = 0; i < 600; ++i) {
      if (instances_on(id) >= want) return true;
      std::this_thread::sleep_for(5ms);
    }
    return false;
  };

  // Node 3 joins node 0's instance through the faulty network...
  ASSERT_TRUE(wait_for_instances(3, 1));
  const std::size_t before = instances_on(3);
  cluster.restart_node(3);
  // ...and the warm restart carries the joined instance across the crash.
  EXPECT_EQ(instances_on(3), before);

  // The restarted node initiates a NEW instance. The swarm picking it up is
  // the acceptance proof: a node whose post-rejoin exchanges were NACKed as
  // stale could never spread one.
  cluster.run_on_node(3, [](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
  EXPECT_TRUE(wait_for_instances(7, 2));
  cluster.stop();

  const host::TrafficStats traffic = cluster.total_traffic();
  EXPECT_EQ(traffic.crash_restarts, 1u);  // Reconciles with the one crash.
  EXPECT_GT(traffic.dropped_messages, 0u);
  EXPECT_GT(traffic.duplicated_messages, 0u);
  EXPECT_GT(traffic.corrupted_messages, 0u);
}

TEST(ChaosTest, UdpWarmRestartRejoinsUnderFaults) {
  constexpr std::size_t kPeers = 6;
  std::vector<stats::Value> values;
  for (std::size_t i = 0; i < kPeers; ++i) {
    values.push_back(static_cast<stats::Value>((i + 1) * 10));
  }
  std::vector<std::unique_ptr<runtime::UdpEndpoint>> endpoints;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints.push_back(std::make_unique<runtime::UdpEndpoint>());
    ports.push_back(endpoints.back()->port());
  }
  runtime::Directory directory(values);

  core::Adam2Config protocol;
  protocol.lambda = 5;
  protocol.instance_ttl = 5000;
  runtime::ClusterConfig config;
  config.gossip_period = 2ms;
  config.response_timeout = 20ms;
  config.seed = 7;
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.15;
  config.faults.corrupt_rate = 0.15;
  config.faults.warm_restart = true;

  const host::AgentFactory factory = [protocol](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(protocol);
  };
  std::vector<std::unique_ptr<runtime::Peer>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints[i]->connect(directory, ports);
    peers.push_back(std::make_unique<runtime::Peer>(
        config, static_cast<host::NodeId>(i), directory, *endpoints[i],
        factory));
  }
  for (auto& peer : peers) peer->start();
  peers[0]->run_on_peer([](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });

  const auto instances_on = [&peers](std::size_t i) {
    std::size_t count = 0;
    peers[i]->run_on_peer(
        [&count](host::NodeAgent& agent, host::AgentContext&) {
          count = dynamic_cast<core::Adam2Agent&>(agent)
                      .active_instance_count();
        });
    return count;
  };
  const auto wait_for_instances = [&](std::size_t i, std::size_t want) {
    for (int tries = 0; tries < 600; ++tries) {
      if (instances_on(i) >= want) return true;
      std::this_thread::sleep_for(5ms);
    }
    return false;
  };

  // Peer 2 joins peer 0's instance across real sockets, crashes, and the
  // warm restart preserves its membership.
  ASSERT_TRUE(wait_for_instances(2, 1));
  const std::size_t before = instances_on(2);
  peers[2]->restart();
  EXPECT_EQ(instances_on(2), before);

  // Its first post-rejoin initiations must be accepted: the new instance it
  // starts spreads to the rest of the deployment.
  peers[2]->run_on_peer([](host::NodeAgent& agent, host::AgentContext& ctx) {
    (void)dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });
  EXPECT_TRUE(wait_for_instances(4, 2));
  // Each peer's fault stream is fixed, so the fault counters below need
  // enough sends to have drawn every fate: keep the deployment gossiping.
  std::this_thread::sleep_for(100ms);
  for (auto& peer : peers) peer->stop();

  const host::TrafficStats traffic = directory.traffic();
  EXPECT_EQ(traffic.crash_restarts, 1u);  // Reconciles with the one crash.
  EXPECT_GT(traffic.dropped_messages, 0u);
  EXPECT_GT(traffic.duplicated_messages, 0u);
  EXPECT_GT(traffic.corrupted_messages, 0u);
}

// -- Crash-restart on the simulators (host::restart_agent) -------------------
// Two scripted instances whose TTL outlives the run, so a node's instance
// state only grows and a crash is the only way to lose it. Each step notes
// every node's birth round and active instances; the recorder's
// crash_restart events name the nodes that crashed in it. Warm: the node
// keeps its birth round and its instances. Cold: its birth round becomes
// the crash round + 1 and it holds no instance.

struct CrashMark {
  host::Round birth_round = 0;
  std::size_t instances = 0;
};

/// Lifecycle events only, so a run's whole trace stays in the ring.
obs::RecorderConfig lifecycle_trace() {
  obs::RecorderConfig config;
  config.trace_exchanges = false;
  return config;
}

host::AgentFactory long_lived_adam2() {
  core::Adam2Config protocol;
  protocol.lambda = 8;
  protocol.instance_ttl = 1000;
  return [protocol](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(protocol);
  };
}

host::FaultPlan crash_plan(bool warm) {
  host::FaultPlan plan;
  plan.crash_rate = 0.03;
  plan.seed = 0xc4a5;
  plan.warm_restart = warm;
  return plan;
}

template <typename EngineT>
std::vector<CrashMark> crash_marks(EngineT& engine) {
  std::vector<CrashMark> marks;
  for (host::NodeId id : engine.live_ids()) {  // No churn: ids are 0..n-1.
    marks.push_back({engine.node(id).birth_round,
                     dynamic_cast<core::Adam2Agent&>(engine.agent(id))
                         .active_instance_count()});
  }
  return marks;
}

/// Checks the nodes that crashed (in round `crash_round`) since the
/// recorder's trace held `seen` events, against their marks `before`, and
/// returns how many of them held an instance going in, so callers can tell
/// the check from a vacuous one.
template <typename EngineT>
std::size_t check_crashed(EngineT& engine, const obs::Recorder& recorder,
                          std::size_t seen, const std::vector<CrashMark>& before,
                          bool warm, host::Round crash_round) {
  const obs::TraceRing& trace = recorder.trace();
  EXPECT_EQ(trace.dropped(), 0u);
  std::size_t held = 0;
  const std::vector<CrashMark> after = crash_marks(engine);
  for (std::size_t i = seen; i < trace.size(); ++i) {
    if (trace.at(i).kind != obs::EventKind::kCrashRestart) continue;
    const host::NodeId id = trace.at(i).a;
    EXPECT_EQ(trace.at(i).round, crash_round) << "node " << id;
    if (before[id].instances > 0) ++held;
    if (warm) {
      EXPECT_EQ(after[id].birth_round, before[id].birth_round) << "node " << id;
      EXPECT_GE(after[id].instances, before[id].instances) << "node " << id;
    } else {
      EXPECT_EQ(after[id].birth_round, crash_round + 1) << "node " << id;
      EXPECT_EQ(after[id].instances, 0u) << "node " << id;
    }
  }
  return held;
}

template <typename EngineT>
void start_two_instances(EngineT& engine) {
  for (host::NodeId id : {host::NodeId{0}, host::NodeId{7}}) {
    host::AgentContext ctx = engine.context_for(id);
    (void)dynamic_cast<core::Adam2Agent&>(engine.agent(id))
        .start_instance(ctx);
  }
}

TEST(ChaosTest, CycleCrashRestartIsWarmOrCold) {
  for (bool warm : {true, false}) {
    std::uint64_t crashes_at_one_thread = 0;
    for (std::size_t threads : {1u, 8u}) {
      sim::EngineConfig config;
      config.seed = 0xc4a5;
      config.faults = crash_plan(warm);
      sim::CycleEngine engine(config, iota_values(60),
                              std::make_unique<sim::StaticRandomOverlay>(6),
                              long_lived_adam2(), nullptr, threads);
      obs::Recorder recorder(lifecycle_trace());
      engine.set_recorder(&recorder);
      start_two_instances(engine);
      std::size_t held = 0;
      for (int step = 0; step < 20; ++step) {
        const std::vector<CrashMark> before = crash_marks(engine);
        const std::size_t seen = recorder.trace().size();
        const host::Round crash_round = engine.round();
        engine.run_round();
        held += check_crashed(engine, recorder, seen, before, warm,
                              crash_round);
      }
      EXPECT_GT(held, 0u) << "warm=" << warm << " threads=" << threads;
      const std::uint64_t crashes = engine.total_traffic().crash_restarts;
      if (threads == 1) crashes_at_one_thread = crashes;
      EXPECT_EQ(crashes, crashes_at_one_thread) << "warm=" << warm;
    }
  }
}

TEST(ChaosTest, AsyncCrashRestartIsWarmOrCold) {
  for (bool warm : {true, false}) {
    sim::AsyncConfig config;
    config.seed = 0xc4a5;
    config.faults = crash_plan(warm);
    sim::AsyncEngine engine(config, iota_values(60),
                            std::make_unique<sim::StaticRandomOverlay>(6),
                            long_lived_adam2(), nullptr);
    obs::Recorder recorder(lifecycle_trace());
    engine.set_recorder(&recorder);
    start_two_instances(engine);
    std::size_t held = 0;
    // Crashes happen at the maintenance event of each whole second k (the
    // gossip period), i.e. in round k.
    for (host::Round k = 1; k <= 20; ++k) {
      const std::vector<CrashMark> before = crash_marks(engine);
      const std::size_t seen = recorder.trace().size();
      engine.run_until(static_cast<double>(k) + 0.5);
      held += check_crashed(engine, recorder, seen, before, warm, k);
    }
    EXPECT_GT(held, 0u) << "warm=" << warm;
  }
}

}  // namespace
}  // namespace adam2
