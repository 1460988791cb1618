// Real-socket path: Adam2 over loopback UDP datagrams, and the static
// Directory every runtime deployment shares (membership and traffic ledger).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <thread>

#include "core/protocol.hpp"
#include "runtime/peer.hpp"
#include "runtime/udp.hpp"

namespace adam2::runtime {
namespace {

using namespace std::chrono_literals;

/// Connects `from` so that node 0 is itself and node 1 is `to`.
void connect_pair(UdpEndpoint& from, const UdpEndpoint& to) {
  from.connect(Directory({0, 0}), {from.port(), to.port()});
}

TEST(UdpEndpointTest, BindsDistinctEphemeralPorts) {
  UdpEndpoint a;
  UdpEndpoint b;
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(UdpEndpointTest, EnvelopeRoundTrip) {
  UdpEndpoint sender;
  UdpEndpoint receiver;
  connect_pair(sender, receiver);
  Envelope out{EnvelopeKind::kGossipRequest, 42, 7,
               {std::byte{1}, std::byte{2}, std::byte{3}}};
  ASSERT_TRUE(sender.send(1, out));
  const auto in = receiver.receive(Clock::now() + 1s);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->kind, EnvelopeKind::kGossipRequest);
  EXPECT_EQ(in->from, 42u);
  EXPECT_EQ(in->token, 7u);
  EXPECT_EQ(in->payload, out.payload);
}

TEST(UdpEndpointTest, EmptyPayloadRoundTrip) {
  UdpEndpoint sender;
  UdpEndpoint receiver;
  connect_pair(sender, receiver);
  ASSERT_TRUE(sender.send(1, {EnvelopeKind::kGossipBusy, 1, 9, {}}));
  const auto in = receiver.receive(Clock::now() + 1s);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->kind, EnvelopeKind::kGossipBusy);
  EXPECT_TRUE(in->payload.empty());
}

TEST(UdpEndpointTest, ReceiveTimesOut) {
  UdpEndpoint receiver;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(receiver.receive(start + 20ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

volatile std::sig_atomic_t g_interrupted = 0;

// A signal whose handler lacks SA_RESTART ends a blocked recv with EINTR.
// The endpoint must wait out the rest of its deadline instead of reporting
// the interruption as a timeout (Endpoint::receive waits until `deadline`).
TEST(UdpEndpointTest, ReceiveWaitsOutItsDeadlineAfterASignal) {
  struct sigaction action {};
  action.sa_handler = [](int) { g_interrupted = 1; };
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // No SA_RESTART.
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  g_interrupted = 0;

  UdpEndpoint receiver;
  const pthread_t self = ::pthread_self();
  std::thread interrupter([self] {
    std::this_thread::sleep_for(10ms);
    ::pthread_kill(self, SIGUSR1);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto received = receiver.receive(start + 50ms);
  const auto waited = std::chrono::steady_clock::now() - start;
  interrupter.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_EQ(g_interrupted, 1);
  EXPECT_FALSE(received.has_value());
  EXPECT_GE(waited, 45ms);
}

// Regression: SO_RCVTIMEO treats a zero timeval as "block forever", so a
// deadline less than a microsecond away (truncated to 0us) used to wedge the
// receive loop until a stray datagram arrived. The endpoint must clamp and
// return promptly.
TEST(UdpEndpointTest, ZeroTimeoutReceiveReturnsPromptly) {
  UdpEndpoint receiver;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(receiver.receive(start).has_value());
  EXPECT_FALSE(receiver.receive(start - 5us).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(UdpEndpointTest, ConnectRejectsAPortTableOfTheWrongSize) {
  UdpEndpoint endpoint;
  const Directory directory({1, 2, 3});
  EXPECT_THROW(endpoint.connect(directory, {endpoint.port()}),
               std::invalid_argument);
  EXPECT_THROW(endpoint.connect(directory, {1, 2, 3, 4}),
               std::invalid_argument);
  EXPECT_NO_THROW(endpoint.connect(directory, {endpoint.port(), 2, 3}));
  EXPECT_FALSE(endpoint.send(3, {EnvelopeKind::kWakeup, 0, 0, {}}));
}

TEST(DirectoryTest, PickTargetNeverSelf) {
  Directory directory({1, 2, 3});
  rng::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto target = directory.pick_gossip_target(1, rng);
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, 1u);
  }
}

TEST(DirectoryTest, KnownValuesExcludeSelf) {
  Directory directory({10, 20, 30});
  const auto values = directory.known_attribute_values(1, directory);
  EXPECT_EQ(values, (std::vector<stats::Value>{10, 30}));
}

TEST(DirectoryTest, CountsMessagesOnBothDirections) {
  Directory directory({1, 2});
  directory.record_traffic(host::Channel::kAggregation, 100);
  directory.record_traffic(host::Channel::kOverlay, 40);
  const host::TrafficStats stats = directory.traffic();
  EXPECT_EQ(stats.on(host::Channel::kAggregation).messages_sent, 1u);
  EXPECT_EQ(stats.on(host::Channel::kAggregation).bytes_sent, 100u);
  EXPECT_EQ(stats.on(host::Channel::kAggregation).messages_received, 1u);
  EXPECT_EQ(stats.on(host::Channel::kOverlay).bytes_sent, 40u);
}

TEST(DirectoryTest, ConcurrentRecordsAllLand) {
  Directory directory({1, 2});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&directory] {
      for (int i = 0; i < kPerThread; ++i) {
        directory.record_traffic(host::Channel::kAggregation, 10);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const host::TrafficStats stats = directory.traffic();
  EXPECT_EQ(stats.on(host::Channel::kAggregation).messages_sent,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.on(host::Channel::kAggregation).bytes_sent,
            static_cast<std::uint64_t>(kThreads) * kPerThread * 10);
}

TEST(DirectoryTest, AddTrafficMergesPeerCounters) {
  Directory directory({1, 2});
  host::TrafficStats local;
  local.on(host::Channel::kAggregation).add_send(64);
  ++local.failed_contacts;
  directory.add_traffic(local);
  directory.add_traffic(local);
  const host::TrafficStats stats = directory.traffic();
  EXPECT_EQ(stats.on(host::Channel::kAggregation).bytes_sent, 128u);
  EXPECT_EQ(stats.failed_contacts, 2u);
}

TEST(UdpPeerTest, Adam2ConvergesOverRealSockets) {
  constexpr std::size_t kPeers = 12;
  std::vector<stats::Value> values;
  for (std::size_t i = 0; i < kPeers; ++i) {
    values.push_back(static_cast<stats::Value>((i + 1) * 10));
  }

  std::vector<std::unique_ptr<UdpEndpoint>> endpoints;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints.push_back(std::make_unique<UdpEndpoint>());
    ports.push_back(endpoints.back()->port());
  }
  Directory directory(values);

  core::Adam2Config protocol;
  protocol.lambda = 6;
  protocol.instance_ttl = 80;
  protocol.bootstrap = core::BootstrapPoints::kNeighbourBased;

  ClusterConfig config;
  config.gossip_period = 3ms;
  config.response_timeout = 30ms;
  config.seed = 9;

  std::vector<std::unique_ptr<Peer>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints[i]->connect(directory, ports);
    peers.push_back(std::make_unique<Peer>(
        config, static_cast<host::NodeId>(i), directory, *endpoints[i],
        [protocol](const host::AgentContext&) {
          return std::make_unique<core::Adam2Agent>(protocol);
        }));
  }
  for (auto& peer : peers) peer->start();

  peers[0]->run_on_peer([](host::NodeAgent& agent, host::AgentContext& ctx) {
    dynamic_cast<core::Adam2Agent&>(agent).start_instance(ctx);
  });

  // Poll until every peer finalised (ttl=80 ticks at ~3 ms).
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::size_t with_estimate = 0;
  std::vector<core::Estimate> estimates;
  while (std::chrono::steady_clock::now() < deadline) {
    with_estimate = 0;
    estimates.clear();
    for (auto& peer : peers) {
      peer->run_on_peer([&](host::NodeAgent& agent, host::AgentContext&) {
        const auto& a2 = dynamic_cast<core::Adam2Agent&>(agent);
        if (a2.estimate()) {
          ++with_estimate;
          estimates.push_back(*a2.estimate());
        }
      });
    }
    if (with_estimate == kPeers) break;
    std::this_thread::sleep_for(20ms);
  }
  for (auto& peer : peers) peer->stop();

  ASSERT_EQ(with_estimate, kPeers);
  const stats::EmpiricalCdf truth{values};
  for (const core::Estimate& est : estimates) {
    EXPECT_NEAR(est.n_estimate, static_cast<double>(kPeers),
                static_cast<double>(kPeers) * 0.3);
    EXPECT_DOUBLE_EQ(est.min_value, 10.0);
    EXPECT_DOUBLE_EQ(est.max_value, 120.0);
    for (const stats::CdfPoint& p : est.points) {
      EXPECT_NEAR(p.f, truth(p.t), 0.15) << "at t=" << p.t;
    }
  }
  EXPECT_GT(directory.traffic().on(host::Channel::kAggregation).messages_sent,
            100u);
}

// A posted task and stop() wake the peer at once (a wakeup datagram to its
// own port), not at its next tick.
TEST(UdpPeerTest, TasksAndStopDoNotWaitForATick) {
  UdpEndpoint endpoint;
  Directory directory({1});
  endpoint.connect(directory, {endpoint.port()});
  ClusterConfig config;
  config.gossip_period = 60s;
  Peer peer(config, 0, directory, endpoint, [](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(core::Adam2Config{});
  });
  peer.start();
  std::this_thread::sleep_for(20ms);  // Let the peer block in receive.
  const auto start = std::chrono::steady_clock::now();
  peer.run_on_peer([](host::NodeAgent&, host::AgentContext&) {});
  peer.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

/// Sends `bytes` as one raw datagram to a loopback port.
void send_raw(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

// Undecodable datagrams reach the directory's ledger when the peer stops,
// and only once: a later start/stop cycle without bad frames adds nothing.
TEST(UdpPeerTest, RejectedFramesReachTheLedgerOnce) {
  UdpEndpoint endpoint;
  Directory directory({1});
  endpoint.connect(directory, {endpoint.port()});
  ClusterConfig config;
  config.gossip_period = 2ms;
  Peer peer(config, 0, directory, endpoint, [](const host::AgentContext&) {
    return std::make_unique<core::Adam2Agent>(core::Adam2Config{});
  });
  peer.start();
  send_raw(endpoint.port(), {1, 2, 3});  // Shorter than the 17-byte header.
  std::vector<std::uint8_t> bad_kind(17, 0);
  bad_kind[0] = 0xee;  // No such envelope kind.
  send_raw(endpoint.port(), bad_kind);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (endpoint.rejected_frames() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  peer.stop();
  EXPECT_EQ(directory.traffic().rejected_messages, 2u);

  peer.start();
  std::this_thread::sleep_for(10ms);
  peer.stop();
  EXPECT_EQ(directory.traffic().rejected_messages, 2u);
}

}  // namespace
}  // namespace adam2::runtime
