// Unit tests for the deterministic fault-injection layer (DESIGN.md §8).
//
// The properties under test are the ones the engines rely on: exact
// replayability of fault schedules from (plan seed, node id), a draw count
// that never depends on the outcome, zero stream consumption when disabled
// (the golden-replay guarantee), corruption that never returns the original
// bytes, partitions that are stable, stateless, and heal on schedule, and
// the crash-restart agent swap every substrate shares (restart_agent).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "host/fault.hpp"
#include "rng/rng.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::host {
namespace {

FaultPlan lossy_plan() {
  FaultPlan plan;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.corrupt_rate = 0.2;
  plan.seed = 42;
  return plan;
}

std::vector<std::byte> payload_bytes(std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::byte>(i);
  return bytes;
}

TEST(FaultPlanTest, DefaultPlanIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.message_faults());
}

TEST(FaultPlanTest, EachFaultKindEnablesThePlan) {
  FaultPlan drop;
  drop.drop_rate = 0.1;
  EXPECT_TRUE(drop.enabled());
  EXPECT_TRUE(drop.message_faults());

  FaultPlan crash;
  crash.crash_rate = 0.1;
  EXPECT_TRUE(crash.enabled());
  EXPECT_FALSE(crash.message_faults());

  FaultPlan partition;
  partition.partition_count = 2;
  EXPECT_TRUE(partition.enabled());
  EXPECT_FALSE(partition.message_faults());

  // A delay rate without a bound can never fire, so it must not count as a
  // message fault (it would burn fate draws for nothing).
  FaultPlan idle_delay;
  idle_delay.delay_rate = 0.5;
  EXPECT_FALSE(idle_delay.message_faults());
  idle_delay.max_delay = 0.25;
  EXPECT_TRUE(idle_delay.message_faults());
}

// The golden-replay guarantee: a disabled injector answers "no fault" to
// every query without consuming a single draw, so fault-aware engines are
// bit-identical to the pre-fault engines at zero rates.
TEST(FaultInjectorTest, DisabledInjectorConsumesNoDraws) {
  const FaultInjector injector;  // Default: disabled.
  rng::Rng stream(7);
  rng::Rng control(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.message_fate(stream), MessageFate::kDeliver);
    EXPECT_EQ(injector.extra_delay(stream), 0.0);
    EXPECT_FALSE(injector.crashes(stream));
  }
  EXPECT_EQ(stream(), control());
}

// Parallel determinism depends on the fate draw count being constant: if a
// drop consumed fewer draws than a delivery, a node's later fates would
// depend on its earlier ones in a schedule-dependent way.
TEST(FaultInjectorTest, FateDrawCountIsOutcomeIndependent) {
  const FaultInjector injector(lossy_plan());
  rng::Rng stream(9);
  rng::Rng control(9);
  for (int i = 0; i < 50; ++i) {
    (void)injector.message_fate(stream);
    (void)control.uniform();
    (void)control.uniform();
    (void)control.uniform();
  }
  EXPECT_EQ(stream(), control());
}

TEST(FaultInjectorTest, ScheduleReplaysExactly) {
  std::vector<MessageFate> first;
  std::vector<MessageFate> second;
  for (auto* fates : {&first, &second}) {
    const FaultInjector injector(lossy_plan());
    rng::Rng stream = injector.node_stream(17);
    for (int i = 0; i < 1000; ++i) fates->push_back(injector.message_fate(stream));
  }
  EXPECT_EQ(first, second);
  // The schedule must actually exercise the taxonomy at these rates.
  const std::set<MessageFate> distinct(first.begin(), first.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(FaultInjectorTest, DistinctNodesAndSeedsGetDistinctStreams) {
  const FaultInjector injector(lossy_plan());
  EXPECT_NE(injector.node_stream(1)(), injector.node_stream(2)());

  FaultPlan reseeded = lossy_plan();
  reseeded.seed = 43;
  const FaultInjector other(reseeded);
  EXPECT_NE(injector.node_stream(1)(), other.node_stream(1)());
}

TEST(FaultInjectorTest, CorruptionNeverReturnsTheOriginalBytes) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  const FaultInjector injector(plan);
  rng::Rng stream = injector.node_stream(3);
  const std::vector<std::byte> original = payload_bytes(64);
  bool saw_truncation = false;
  bool saw_flip = false;
  for (int i = 0; i < 500; ++i) {
    const std::vector<std::byte> mangled = injector.corrupt(original, stream);
    ASSERT_LE(mangled.size(), original.size());
    EXPECT_NE(mangled, original);
    if (mangled.size() < original.size()) {
      saw_truncation = true;
    } else {
      saw_flip = true;
    }
  }
  EXPECT_TRUE(saw_truncation);
  EXPECT_TRUE(saw_flip);
}

TEST(FaultInjectorTest, CorruptingAnEmptyPayloadStaysEmpty) {
  const FaultInjector injector(lossy_plan());
  rng::Rng stream = injector.node_stream(4);
  EXPECT_TRUE(injector.corrupt({}, stream).empty());
}

TEST(FaultInjectorTest, PartitionAssignmentIsStableStatelessAndInRange) {
  FaultPlan plan;
  plan.partition_count = 3;
  const FaultInjector injector(plan);
  std::set<std::size_t> seen;
  for (NodeId id = 0; id < 64; ++id) {
    const std::size_t p = injector.partition_of(id);
    EXPECT_LT(p, 3u);
    EXPECT_EQ(p, injector.partition_of(id));  // Stable.
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 3u);  // All partitions populated at this size.
}

TEST(FaultInjectorTest, PartitionsHealAfterTheConfiguredWindow) {
  FaultPlan plan;
  plan.partition_count = 2;
  plan.partition_start = 10;
  plan.partition_heal_after = 5;
  const FaultInjector injector(plan);

  // Find a cross-partition pair and a same-partition pair.
  NodeId across = 1;
  while (injector.partition_of(across) == injector.partition_of(0)) ++across;
  NodeId along = across + 1;
  while (injector.partition_of(along) != injector.partition_of(0)) ++along;

  EXPECT_FALSE(injector.partition_active(9));
  EXPECT_TRUE(injector.partition_active(10));
  EXPECT_TRUE(injector.partition_active(14));
  EXPECT_FALSE(injector.partition_active(15));  // Healed.

  EXPECT_FALSE(injector.partitioned(0, across, 9));
  EXPECT_TRUE(injector.partitioned(0, across, 12));
  EXPECT_TRUE(injector.partitioned(across, 0, 12));  // Symmetric.
  EXPECT_FALSE(injector.partitioned(0, across, 15));
  EXPECT_FALSE(injector.partitioned(0, along, 12));  // Same side.
}

TEST(FaultInjectorTest, PartitionWithZeroHealNeverHeals) {
  FaultPlan plan;
  plan.partition_count = 2;
  plan.partition_start = 3;
  plan.partition_heal_after = 0;
  const FaultInjector injector(plan);
  EXPECT_FALSE(injector.partition_active(2));
  EXPECT_TRUE(injector.partition_active(3));
  EXPECT_TRUE(injector.partition_active(1u << 30));
}

TEST(FaultInjectorTest, CrashRateExtremes) {
  FaultPlan always;
  always.crash_rate = 1.0;
  FaultPlan never;  // crash_rate 0 → no draws either.
  const FaultInjector always_injector(always);
  const FaultInjector never_injector(never);
  rng::Rng stream(11);
  rng::Rng control(11);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(always_injector.crashes(stream));
    EXPECT_FALSE(never_injector.crashes(stream));
  }
  // Only the enabled injector drew (one draw per query).
  for (int i = 0; i < 20; ++i) (void)control.uniform();
  EXPECT_EQ(stream(), control());
}

TEST(FaultInjectorTest, ExtraDelayIsBoundedAndZeroWhenDisabled) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay = 0.5;
  const FaultInjector injector(plan);
  rng::Rng stream = injector.node_stream(5);
  for (int i = 0; i < 200; ++i) {
    const double delay = injector.extra_delay(stream);
    EXPECT_GT(delay, 0.0);
    EXPECT_LE(delay, 0.5);
  }
  const FaultInjector disabled;
  EXPECT_EQ(disabled.extra_delay(stream), 0.0);
}

// ------------------------------------------------------------ restart_agent

/// Agent whose whole state is one byte; `accepts` decides whether
/// restore_state takes a saved blob back.
class BlobAgent final : public NodeAgent {
 public:
  explicit BlobAgent(bool accepts) : accepts_(accepts) {}

  std::span<const std::byte> make_request(AgentContext&) override {
    return {};
  }
  std::span<const std::byte> handle_request(
      AgentContext&, std::span<const std::byte>) override {
    return {};
  }
  [[nodiscard]] bool save_state(wire::Writer& out) const override {
    out.u8(1);
    return true;
  }
  [[nodiscard]] bool restore_state(wire::Reader& in) override {
    (void)in.u8();
    return accepts_;
  }

 private:
  bool accepts_;
};

AgentFactory blob_factory(bool accepts) {
  return [accepts](const AgentContext&) {
    return std::make_unique<BlobAgent>(accepts);
  };
}

/// restart_agent only needs a context to hand the factory; a two-node
/// engine supplies one.
sim::CycleEngine context_engine() {
  return sim::CycleEngine({}, {1, 2},
                          std::make_unique<sim::StaticRandomOverlay>(1),
                          blob_factory(true), nullptr);
}

TEST(RestartAgentTest, ThrowsWhenTheFactoryReturnsNull) {
  sim::CycleEngine engine = context_engine();
  const auto context = [&](bool) { return engine.context_for(0); };
  const AgentFactory null_factory = [](const AgentContext&) {
    return std::unique_ptr<NodeAgent>{};
  };
  for (bool warm : {false, true}) {
    std::unique_ptr<NodeAgent> agent = std::make_unique<BlobAgent>(true);
    const NodeAgent* crashed = agent.get();
    EXPECT_THROW(restart_agent(agent, warm, null_factory, context),
                 std::runtime_error)
        << "warm=" << warm;
    EXPECT_EQ(agent.get(), crashed) << "warm=" << warm;  // Left in place.
  }
}

TEST(RestartAgentTest, ThrowsWhenAnAgentRejectsItsOwnBlob) {
  sim::CycleEngine engine = context_engine();
  const auto context = [&](bool) { return engine.context_for(0); };
  std::unique_ptr<NodeAgent> agent = std::make_unique<BlobAgent>(false);
  const NodeAgent* crashed = agent.get();
  EXPECT_THROW(restart_agent(agent, true, blob_factory(false), context),
               std::runtime_error);
  EXPECT_EQ(agent.get(), crashed);
  // A cold restart restores nothing, so the same agent type restarts fine.
  restart_agent(agent, false, blob_factory(false), context);
  EXPECT_NE(agent.get(), crashed);
}

}  // namespace
}  // namespace adam2::host
