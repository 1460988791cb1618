// Golden replay: the cycle engine's sharded phases must produce bit-identical
// results to its one-thread run for every seed at every thread count. The
// tests replay the same configuration at several thread counts and compare
// the full observable state: live membership, per-agent protocol state,
// attributes, and traffic totals — all exact equality, no tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "obs/recorder.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

/// Push-pull averaging agent: enough state to expose any divergence in
/// exchange order, loss draws, or churn trajectories.
class AveragingAgent final : public host::NodeAgent {
 public:
  explicit AveragingAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  std::span<const std::byte> make_request(host::AgentContext& ctx) override {
    // Consume the agent stream so stream separation is exercised too.
    jitter_ = ctx.rng.uniform(0.0, 1e-12);
    scratch_ = encode(value_ + jitter_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte> req) override {
    const double theirs = decode(req);
    scratch_ = encode(value_);
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

  double value_ = 0.0;
  double jitter_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

/// Fault-hardened variant: tolerates corrupted/truncated payloads the way a
/// real protocol agent does — validate, then drop. Values merged under
/// faults stay finite, so serial/parallel comparisons remain bitwise.
class HardenedAgent final : public host::NodeAgent {
 public:
  explicit HardenedAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  std::span<const std::byte> make_request(host::AgentContext& ctx) override {
    jitter_ = ctx.rng.uniform(0.0, 1e-12);
    scratch_ = encode(value_ + jitter_);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte> req) override {
    const auto theirs = decode(req);
    if (!theirs) return {};  // Corrupted request: no merge, no reply.
    scratch_ = encode(value_);
    value_ = (value_ + *theirs) / 2.0;
    return scratch_;
  }

  void handle_response(host::AgentContext&,
                       std::span<const std::byte> resp) override {
    const auto theirs = decode(resp);
    if (!theirs) return;
    value_ = (value_ + *theirs) / 2.0;
  }

 private:
  static std::vector<std::byte> encode(double v) {
    wire::Writer w;
    w.f64(v);
    return w.take();
  }
  static std::optional<double> decode(std::span<const std::byte> bytes) {
    if (bytes.size() != sizeof(double)) return std::nullopt;  // Truncated.
    wire::Reader r(bytes);
    const double v = r.f64();
    // Byte flips can produce any bit pattern; cap at the plausible range.
    if (!std::isfinite(v) || v < 0.0 || v > 2000.0) return std::nullopt;
    return v;
  }

  double value_ = 0.0;
  double jitter_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

host::AgentFactory hardened_factory() {
  return [](const host::AgentContext& ctx) {
    return std::make_unique<HardenedAgent>(static_cast<double>(ctx.attribute));
  };
}

host::AgentFactory averaging_factory() {
  return [](const host::AgentContext& ctx) {
    return std::make_unique<AveragingAgent>(static_cast<double>(ctx.attribute));
  };
}

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

EngineConfig stress_config() {
  EngineConfig config;
  config.seed = 0xfeed;
  config.churn_rate = 0.02;
  config.faults.drop_rate = 0.05;
  return config;
}

std::unique_ptr<host::Overlay> cyclon(std::size_t view = 8) {
  CyclonConfig config;
  config.view_size = view;
  config.shuffle_size = view / 2;
  return std::make_unique<CyclonOverlay>(config);
}

host::AttributeSource churn_values() {
  return [](rng::Rng& rng) { return static_cast<stats::Value>(rng.below(1000)); };
}

template <typename AgentT = AveragingAgent>
void expect_identical(CycleEngine& a, CycleEngine& b) {
  ASSERT_EQ(a.live_count(), b.live_count());
  ASSERT_EQ(a.nodes_ever(), b.nodes_ever());
  const auto live_a = a.live_ids();
  const auto live_b = b.live_ids();
  ASSERT_TRUE(std::equal(live_a.begin(), live_a.end(), live_b.begin(),
                         live_b.end()));
  for (host::NodeId id : live_a) {
    EXPECT_EQ(a.attribute_of(id), b.attribute_of(id));
    const auto* agent_a = dynamic_cast<AgentT*>(&a.agent(id));
    const auto* agent_b = dynamic_cast<AgentT*>(&b.agent(id));
    ASSERT_NE(agent_a, nullptr);
    ASSERT_NE(agent_b, nullptr);
    // Bitwise, not approximate: a different exchange order would show up
    // as a ULP-level difference in the averaged value.
    EXPECT_EQ(agent_a->value(), agent_b->value()) << "node " << id;
  }
  const host::TrafficStats& ta = a.total_traffic();
  const host::TrafficStats& tb = b.total_traffic();
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const auto ch = static_cast<host::Channel>(c);
    EXPECT_EQ(ta.on(ch).messages_sent, tb.on(ch).messages_sent);
    EXPECT_EQ(ta.on(ch).bytes_sent, tb.on(ch).bytes_sent);
    EXPECT_EQ(ta.on(ch).messages_received, tb.on(ch).messages_received);
  }
  EXPECT_EQ(ta.failed_contacts, tb.failed_contacts);
  EXPECT_EQ(ta.dropped_messages, tb.dropped_messages);
  EXPECT_EQ(ta.busy_rejections, tb.busy_rejections);
  EXPECT_EQ(ta.duplicated_messages, tb.duplicated_messages);
  EXPECT_EQ(ta.corrupted_messages, tb.corrupted_messages);
  EXPECT_EQ(ta.partitioned_messages, tb.partitioned_messages);
  EXPECT_EQ(ta.crash_restarts, tb.crash_restarts);
}

TEST(ParallelEngineTest, SingleThreadMatchesSerialEngine) {
  // 0 and 1 both select the inline path.
  CycleEngine serial(stress_config(), iota_values(300), cyclon(),
                     averaging_factory(), churn_values(), 0);
  CycleEngine single(stress_config(), iota_values(300), cyclon(),
                     averaging_factory(), churn_values(), 1);
  serial.run_rounds(25);
  single.run_rounds(25);
  expect_identical(serial, single);
}

TEST(ParallelEngineTest, AnyThreadCountMatchesSerialEngine) {
  CycleEngine serial(stress_config(), iota_values(300), cyclon(),
                     averaging_factory(), churn_values());
  serial.run_rounds(20);
  for (std::size_t threads : {2u, 8u}) {
    CycleEngine parallel(stress_config(), iota_values(300), cyclon(),
                         averaging_factory(), churn_values(), threads);
    parallel.run_rounds(20);
    expect_identical(serial, parallel);
  }
}

// The exchange walk draws targets 16 units ahead into a ring of
// pending_limit() + 16 entries. Above kMaxPending + 16 initiators the
// threaded ring wraps within a round, so a walk that overwrote the target of
// a unit not yet applied would show here; the snapshots compare every byte.
TEST(ParallelEngineTest, TargetRingWrapsIdenticallyAtEightThreads) {
  const std::size_t nodes = host::WorkerPool::kMaxPending + 500;
  CycleEngine serial(stress_config(), iota_values(nodes), cyclon(),
                     averaging_factory(), churn_values());
  CycleEngine parallel(stress_config(), iota_values(nodes), cyclon(),
                       averaging_factory(), churn_values(), 8);
  for (int round = 0; round < 4; ++round) {
    serial.run_round();
    parallel.run_round();
  }
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, StaticOverlayWithoutChurnMatches) {
  EngineConfig config;
  config.seed = 77;
  CycleEngine serial(config, iota_values(200),
                     std::make_unique<StaticRandomOverlay>(6),
                     averaging_factory(), nullptr);
  CycleEngine parallel(config, iota_values(200),
                       std::make_unique<StaticRandomOverlay>(6),
                       averaging_factory(), nullptr, 4);
  serial.run_rounds(30);
  parallel.run_rounds(30);
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, RepeatedParallelRunsAreDeterministic) {
  CycleEngine first(stress_config(), iota_values(250), cyclon(),
                    averaging_factory(), churn_values(), 4);
  CycleEngine second(stress_config(), iota_values(250), cyclon(),
                     averaging_factory(), churn_values(), 4);
  first.run_rounds(15);
  second.run_rounds(15);
  expect_identical(first, second);
}

TEST(ParallelEngineTest, EmptyPopulationRunsHarmlessly) {
  CycleEngine engine(EngineConfig{}, {},
                     std::make_unique<StaticRandomOverlay>(4),
                     averaging_factory(), nullptr, 4);
  engine.run_rounds(3);
  EXPECT_EQ(engine.live_count(), 0u);
}

TEST(ParallelEngineTest, MoreThreadsThanNodes) {
  EngineConfig config;
  config.seed = 3;
  CycleEngine serial(config, iota_values(3),
                     std::make_unique<StaticRandomOverlay>(2),
                     averaging_factory(), nullptr);
  CycleEngine parallel(config, iota_values(3),
                       std::make_unique<StaticRandomOverlay>(2),
                       averaging_factory(), nullptr, 8);
  serial.run_rounds(10);
  parallel.run_rounds(10);
  expect_identical(serial, parallel);
}

TEST(ParallelEngineTest, ZeroThreadsMeansSerialExecution) {
  CycleEngine engine(EngineConfig{}, iota_values(10),
                     std::make_unique<StaticRandomOverlay>(3),
                     averaging_factory(), nullptr, 0);
  EXPECT_EQ(engine.threads(), 1u);
  engine.run_rounds(2);
  EXPECT_EQ(engine.live_count(), 10u);
}

TEST(ParallelEngineTest, RecorderSeesEveryRound) {
  obs::Recorder recorder;
  CycleEngine engine(stress_config(), iota_values(50), cyclon(4),
                     averaging_factory(), churn_values(), 2);
  engine.set_recorder(&recorder);
  engine.run_rounds(5);
  std::vector<host::Round> ended;
  for (std::size_t i = 0; i < recorder.trace().size(); ++i) {
    const obs::TraceEvent& event = recorder.trace().at(i);
    if (event.kind != obs::EventKind::kRoundEnd) continue;
    ended.push_back(event.round);
    EXPECT_EQ(event.value_a, 50u);  // Live count.
  }
  EXPECT_EQ(ended, (std::vector<host::Round>{0, 1, 2, 3, 4}));
}

// Fault replay: the same FaultPlan seed must produce the same fault
// schedule — and therefore bit-identical node state and fault counters — at
// any thread count. Fault draws come from per-node streams consumed only
// inside the owning exchange unit, which is what makes this possible.
TEST(ParallelEngineTest, FaultScheduleReplaysBitIdenticallyAcrossEngines) {
  EngineConfig config = stress_config();
  config.faults.drop_rate = 0.1;
  config.faults.duplicate_rate = 0.08;
  config.faults.corrupt_rate = 0.08;
  config.faults.crash_rate = 0.01;
  config.faults.partition_count = 2;
  config.faults.partition_start = 5;
  config.faults.partition_heal_after = 6;
  config.faults.seed = 0x5eed;

  CycleEngine serial(config, iota_values(300), cyclon(), hardened_factory(),
                     churn_values());
  serial.run_rounds(25);
  EXPECT_GT(serial.total_traffic().corrupted_messages, 0u);
  EXPECT_GT(serial.total_traffic().crash_restarts, 0u);
  for (std::size_t threads : {2u, 8u}) {
    CycleEngine parallel(config, iota_values(300), cyclon(),
                         hardened_factory(), churn_values(), threads);
    parallel.run_rounds(25);
    expect_identical<HardenedAgent>(serial, parallel);
  }
}

// Full protocol stack: the Adam2 system must report bit-identical
// population errors at any engine thread count.
TEST(ParallelEngineTest, Adam2SystemErrorsAreBitIdenticalAcrossEngines) {
  const auto run = [](std::size_t threads) {
    core::SystemConfig config;
    config.engine.seed = 11;
    config.engine.churn_rate = 0.002;
    config.protocol.lambda = 20;
    config.protocol.instance_ttl = 20;
    config.engine_threads = threads;
    core::Adam2System system(config, iota_values(400),
                             churn_values());
    system.run_instance();
    return system.errors();
  };
  const auto serial = run(0);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(serial.max_err, parallel.max_err) << threads << " threads";
    EXPECT_EQ(serial.avg_err, parallel.avg_err) << threads << " threads";
    EXPECT_EQ(serial.peers, parallel.peers) << threads << " threads";
  }
}

}  // namespace
}  // namespace adam2::sim
