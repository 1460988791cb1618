// Duplication semantics, pinned across every execution substrate.
//
// A duplicated message is a retransmission: the same encoded bytes handed to
// the receiver twice. What the protocol observes differs by substrate, and
// these tests nail each contract so the shared fabric (host/exchange.hpp)
// cannot drift:
//
//  * cycle engines (serial + sharded): the responder handles both request
//    copies and only the reply to the SECOND copy travels back — the earlier
//    reply's scratch is invalidated by the later handle_request call. The
//    duplicated response leg then delivers that one reply twice.
//  * event-driven engine: no session tracking — every surviving copy of
//    every leg becomes its own delivery event, so one exchange under
//    duplicate_rate=1 means two handle_request and four handle_response
//    calls, with three legs counted as duplicated (one request, two
//    responses).
//  * sessioned runtimes (threaded cluster, UDP peers): the
//    runtime::SessionedPort's token discipline merges exactly one response
//    copy; the second is stale by construction and counted as dropped. Both
//    request copies carry the same token.
//
// Labelled `chaos` (runs under sanitizers in CI with the fault matrix).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "host/exchange.hpp"
#include "host/fault.hpp"
#include "runtime/cluster.hpp"
#include "runtime/peer.hpp"
#include "runtime/session.hpp"
#include "runtime/transport.hpp"
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

host::FaultPlan always_duplicate() {
  host::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  plan.seed = 0xd0b1e;
  return plan;
}

std::vector<std::byte> encode_u64(std::uint64_t v) {
  std::vector<std::byte> bytes(sizeof(v));
  std::memcpy(bytes.data(), &v, sizeof(v));
  return bytes;
}

std::uint64_t decode_u64(std::span<const std::byte> bytes) {
  std::uint64_t v = 0;
  if (bytes.size() == sizeof(v)) std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

/// Shared (single-writer-at-a-time) ledger of protocol-visible events. Only
/// one exchange is ever in flight in the tests that use it, so plain fields
/// are race-free even under the sharded engine's phase barriers.
struct Counts {
  std::uint64_t initiations = 0;        ///< Non-empty make_request calls.
  std::uint64_t requests_handled = 0;   ///< handle_request invocations.
  std::uint64_t responses_handled = 0;  ///< handle_response invocations.
  /// Ordinal carried by each merged response: the global requests_handled
  /// value at the time the reply was produced. With duplication, which copy
  /// produced the surviving reply is visible in its parity.
  std::vector<std::uint64_t> received_ordinals;
};

/// Only node 0 ever initiates (at most `max_initiations` times); everyone
/// answers. Replies carry the ordinal of the handle_request call that
/// produced them, so the "which copy's reply survived" question has an
/// observable answer.
class OrdinalAgent final : public host::NodeAgent {
 public:
  OrdinalAgent(Counts* counts, std::uint64_t max_initiations)
      : counts_(counts), max_initiations_(max_initiations) {}

  std::span<const std::byte> make_request(host::AgentContext& ctx) override {
    if (ctx.self != 0) return {};
    if (counts_->initiations >= max_initiations_) return {};
    ++counts_->initiations;
    scratch_ = encode_u64(counts_->initiations);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte>) override {
    ++counts_->requests_handled;
    scratch_ = encode_u64(counts_->requests_handled);
    return scratch_;
  }

  void handle_response(host::AgentContext&,
                       std::span<const std::byte> response) override {
    ++counts_->responses_handled;
    counts_->received_ordinals.push_back(decode_u64(response));
  }

 private:
  Counts* counts_;
  std::uint64_t max_initiations_;
  std::vector<std::byte> scratch_;
};

host::AgentFactory ordinal_factory(Counts* counts,
                                   std::uint64_t max_initiations) {
  return [counts, max_initiations](const host::AgentContext&) {
    return std::make_unique<OrdinalAgent>(counts, max_initiations);
  };
}

// --------------------------------------------------------------------------
// Cycle engines: both copies handled, the second copy's reply wins, and the
// duplicated response leg merges that one reply twice.
// --------------------------------------------------------------------------

constexpr std::size_t kCycleNodes = 16;
constexpr std::size_t kCycleRounds = 6;

Counts run_cycle(std::size_t threads) {
  Counts counts;
  sim::EngineConfig config;
  config.seed = 0xd0b;
  config.faults = always_duplicate();
  sim::CycleEngine engine(config, iota_values(kCycleNodes),
                          std::make_unique<sim::StaticRandomOverlay>(4),
                          ordinal_factory(&counts, kCycleRounds), nullptr,
                          threads);
  engine.run_rounds(kCycleRounds);
  EXPECT_EQ(engine.total_traffic().duplicated_messages, 2 * kCycleRounds);
  EXPECT_EQ(engine.total_traffic().failed_contacts, 0u);
  return counts;
}

void check_cycle_counts(const Counts& counts) {
  EXPECT_EQ(counts.initiations, kCycleRounds);
  // Request leg duplicated: the responder processes both copies.
  EXPECT_EQ(counts.requests_handled, 2 * kCycleRounds);
  // Response leg duplicated: the surviving reply is merged twice.
  EXPECT_EQ(counts.responses_handled, 2 * kCycleRounds);
  ASSERT_EQ(counts.received_ordinals.size(), 2 * kCycleRounds);
  for (std::size_t round = 0; round < kCycleRounds; ++round) {
    const std::uint64_t first = counts.received_ordinals[2 * round];
    const std::uint64_t second = counts.received_ordinals[2 * round + 1];
    // Both merges carry the same reply bytes...
    EXPECT_EQ(first, second) << "round " << round;
    // ...and that reply is the one produced for the SECOND request copy:
    // handle_request ordinals come in (odd, even) pairs per round, and only
    // the even (second) one survives.
    EXPECT_EQ(first % 2, 0u) << "round " << round;
  }
}

TEST(DuplicationCycleTest, SerialSecondReplyWinsAndMergesTwice) {
  check_cycle_counts(run_cycle(0));
}

TEST(DuplicationCycleTest, ParallelMatchesSerialBitExactly) {
  const Counts serial = run_cycle(0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const Counts parallel = run_cycle(threads);
    check_cycle_counts(parallel);
    EXPECT_EQ(parallel.received_ordinals, serial.received_ordinals)
        << threads << " threads";
  }
}

// --------------------------------------------------------------------------
// Event-driven engine: every copy of every leg is its own delivery event.
// --------------------------------------------------------------------------

TEST(DuplicationAsyncTest, EveryCopyOfEveryLegDelivers) {
  constexpr std::uint64_t kExchanges = 3;
  Counts counts;
  sim::AsyncConfig config;
  config.seed = 0xa5d0b;
  config.period_jitter = 0.0;
  config.latency_min = 0.01;
  config.latency_max = 0.01;
  config.faults = always_duplicate();
  sim::AsyncEngine engine(config, iota_values(8),
                          std::make_unique<sim::StaticRandomOverlay>(4),
                          ordinal_factory(&counts, kExchanges), nullptr);
  // Period 1.0 s, fixed 10 ms latency: three exchanges complete and drain
  // long before t = 10 s, and the agent then stays silent.
  engine.run_until(10.0);

  EXPECT_EQ(counts.initiations, kExchanges);
  // Two request copies reach the responder...
  EXPECT_EQ(counts.requests_handled, 2 * kExchanges);
  // ...each reply is duplicated in turn, and with no session tracking all
  // four copies merge.
  EXPECT_EQ(counts.responses_handled, 4 * kExchanges);
  // Per exchange: one duplicated request leg + two duplicated response legs.
  EXPECT_EQ(engine.total_traffic().duplicated_messages, 3 * kExchanges);
  EXPECT_EQ(engine.total_traffic().failed_contacts, 0u);
  EXPECT_EQ(engine.total_traffic().busy_rejections, 0u);
}

// --------------------------------------------------------------------------
// SessionedPort: the runtimes' token discipline against a recording endpoint.
// --------------------------------------------------------------------------

class NullHost final : public host::HostView {
 public:
  [[nodiscard]] bool is_live(host::NodeId) const override { return true; }
  [[nodiscard]] stats::Value attribute_of(host::NodeId) const override {
    return 0;
  }
  [[nodiscard]] host::Round round() const override { return 0; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return {};
  }
  void record_traffic(host::Channel, std::size_t) override {}
};

class NullOverlay final : public host::Overlay {
 public:
  void add_node(host::NodeId, const host::HostView&, rng::Rng&) override {}
  void remove_node(host::NodeId) override {}
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId, rng::Rng&) const override {
    return std::nullopt;
  }
  [[nodiscard]] std::vector<host::NodeId> neighbors(
      host::NodeId) const override {
    return {};
  }
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId, const host::HostView&) const override {
    return {};
  }
};

/// Records every envelope the port sends, by kind; receives nothing.
class RecordingEndpoint final : public runtime::Endpoint {
 public:
  struct Sent {
    host::NodeId to;
    std::uint64_t token;
    std::vector<std::byte> payload;
  };

  bool send(host::NodeId to, runtime::Envelope envelope) override {
    EXPECT_EQ(envelope.from, kSelf);
    Sent sent{to, envelope.token, std::move(envelope.payload)};
    switch (envelope.kind) {
      case runtime::EnvelopeKind::kGossipRequest:
        requests.push_back(std::move(sent));
        break;
      case runtime::EnvelopeKind::kGossipResponse:
        responses.push_back(std::move(sent));
        break;
      case runtime::EnvelopeKind::kGossipBusy:
        busys.push_back(std::move(sent));
        break;
      case runtime::EnvelopeKind::kWakeup:
        ADD_FAILURE() << "the port never sends a wakeup";
        break;
    }
    return true;
  }
  [[nodiscard]] std::optional<runtime::Envelope> receive(
      runtime::Clock::time_point) override {
    return std::nullopt;
  }

  /// The node id the port under test stamps on its envelopes.
  static constexpr host::NodeId kSelf = 5;
  std::vector<Sent> requests;
  std::vector<Sent> responses;
  std::vector<Sent> busys;
};

class SessionedPortDuplicationTest : public ::testing::Test {
 protected:
  SessionedPortDuplicationTest()
      : conduit_(always_duplicate()),
        fault_rng_(conduit_.faults().node_stream(0)),
        port_(conduit_, endpoint_, RecordingEndpoint::kSelf, fault_rng_,
              counters_),
        ctx_{null_host_, null_overlay_, 0, 0, 0, 0, agent_rng_} {}

  Counts counts_;
  OrdinalAgent agent_{&counts_, /*max_initiations=*/100};
  host::Conduit conduit_;
  rng::Rng fault_rng_{0};
  RecordingEndpoint endpoint_;
  host::TrafficStats counters_;
  runtime::SessionedPort port_;
  NullHost null_host_;
  NullOverlay null_overlay_;
  rng::Rng agent_rng_{1};
  host::AgentContext ctx_;
};

TEST_F(SessionedPortDuplicationTest, InitiateSendsTwoCopiesOfOneToken) {
  const auto outcome =
      port_.initiate(agent_, ctx_, [] { return std::optional<host::NodeId>{1}; },
                     10ms);
  EXPECT_EQ(outcome, runtime::SessionedPort::Initiate::kSent);
  ASSERT_EQ(endpoint_.requests.size(), 2u);
  EXPECT_EQ(endpoint_.requests[0].token, endpoint_.requests[1].token);
  EXPECT_EQ(endpoint_.requests[0].payload, endpoint_.requests[1].payload);
  // One logical send, one duplication fault, one byte-accounting call.
  EXPECT_EQ(counters_.duplicated_messages, 1u);
  EXPECT_EQ(counters_.on(host::Channel::kAggregation).messages_sent, 1u);
  EXPECT_TRUE(port_.session().busy());
}

TEST_F(SessionedPortDuplicationTest, FirstResponseMergesSecondIsStale) {
  ASSERT_EQ(port_.initiate(
                agent_, ctx_, [] { return std::optional<host::NodeId>{1}; },
                10ms),
            runtime::SessionedPort::Initiate::kSent);
  const std::uint64_t token = endpoint_.requests.at(0).token;
  const auto reply = encode_u64(42);

  // The responder's reply was duplicated: two copies, same token. The first
  // closes the session and merges; the second is stale by construction.
  EXPECT_TRUE(port_.on_response(agent_, ctx_, token, reply));
  EXPECT_FALSE(port_.on_response(agent_, ctx_, token, reply));

  EXPECT_EQ(counts_.responses_handled, 1u);
  ASSERT_EQ(counts_.received_ordinals.size(), 1u);
  EXPECT_EQ(counts_.received_ordinals[0], 42u);
  EXPECT_EQ(counters_.dropped_messages, 1u);
  EXPECT_FALSE(port_.session().busy());
}

TEST_F(SessionedPortDuplicationTest, EachRequestCopyIsAnsweredWithTwoCopies) {
  const auto request = encode_u64(7);
  // Two request copies arrive (the peer's send was duplicated); the port is
  // idle, so both are answered — and each reply is duplicated in turn.
  EXPECT_TRUE(port_.on_request(agent_, ctx_, 2, 7, request));
  EXPECT_TRUE(port_.on_request(agent_, ctx_, 2, 7, request));

  EXPECT_EQ(counts_.requests_handled, 2u);
  ASSERT_EQ(endpoint_.responses.size(), 4u);
  for (const auto& sent : endpoint_.responses) {
    EXPECT_EQ(sent.to, 2u);
    EXPECT_EQ(sent.token, 7u);
  }
  EXPECT_EQ(counters_.duplicated_messages, 2u);
  EXPECT_EQ(counters_.on(host::Channel::kAggregation).messages_received, 2u);
}

TEST_F(SessionedPortDuplicationTest, BusyPortNacksInsteadOfAnswering) {
  ASSERT_EQ(port_.initiate(
                agent_, ctx_, [] { return std::optional<host::NodeId>{1}; },
                10ms),
            runtime::SessionedPort::Initiate::kSent);
  EXPECT_FALSE(port_.on_request(agent_, ctx_, 2, 9, encode_u64(9)));
  ASSERT_EQ(endpoint_.busys.size(), 1u);
  EXPECT_EQ(endpoint_.busys[0].to, 2u);
  EXPECT_EQ(endpoint_.busys[0].token, 9u);
  EXPECT_EQ(counters_.busy_rejections, 1u);
  EXPECT_EQ(counts_.requests_handled, 0u);
}

// --------------------------------------------------------------------------
// Real runtimes: with duplicate_rate = 1 every logical gossip send resolves
// to one duplication fault, so the counters must track byte-accounted sends
// exactly — whatever the wall-clock schedule did.
// --------------------------------------------------------------------------

/// Minimal per-node agent for the threaded runtimes: no shared state.
class EchoAgent final : public host::NodeAgent {
 public:
  std::span<const std::byte> make_request(host::AgentContext&) override {
    scratch_ = encode_u64(1);
    return scratch_;
  }
  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte>) override {
    scratch_ = encode_u64(2);
    return scratch_;
  }

 private:
  std::vector<std::byte> scratch_;
};

TEST(DuplicationRuntimeTest, ClusterDuplicatesEveryLogicalSend) {
  runtime::ClusterConfig config;
  config.gossip_period = 2ms;
  config.response_timeout = 10ms;
  config.seed = 0xd0b2;
  config.faults = always_duplicate();
  runtime::Cluster cluster(config, iota_values(4), [](const host::AgentContext&) {
    return std::make_unique<EchoAgent>();
  });
  cluster.start();
  std::this_thread::sleep_for(50ms);
  cluster.stop();

  const host::TrafficStats total = cluster.total_traffic();
  EXPECT_GT(total.on(host::Channel::kAggregation).messages_sent, 0u);
  EXPECT_EQ(total.duplicated_messages,
            total.on(host::Channel::kAggregation).messages_sent);
}

TEST(DuplicationRuntimeTest, UdpPeersDuplicateEveryLogicalSend) {
  constexpr std::size_t kPeers = 3;
  std::vector<std::unique_ptr<runtime::UdpEndpoint>> endpoints;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints.push_back(std::make_unique<runtime::UdpEndpoint>());
    ports.push_back(endpoints.back()->port());
  }
  runtime::Directory directory(iota_values(kPeers));

  runtime::ClusterConfig config;
  config.gossip_period = 2ms;
  config.response_timeout = 10ms;
  config.seed = 0xd0b3;
  config.faults = always_duplicate();

  std::vector<std::unique_ptr<runtime::Peer>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    endpoints[i]->connect(directory, ports);
    peers.push_back(std::make_unique<runtime::Peer>(
        config, static_cast<host::NodeId>(i), directory, *endpoints[i],
        [](const host::AgentContext&) { return std::make_unique<EchoAgent>(); }));
  }
  for (auto& peer : peers) peer->start();
  std::this_thread::sleep_for(50ms);
  for (auto& peer : peers) peer->stop();

  const host::TrafficStats total = directory.traffic();
  EXPECT_GT(total.on(host::Channel::kAggregation).messages_sent, 0u);
  EXPECT_EQ(total.duplicated_messages,
            total.on(host::Channel::kAggregation).messages_sent);
}

}  // namespace
}  // namespace adam2
