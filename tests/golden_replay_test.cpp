// Golden determinism fixtures: seeded small-N runs whose end-state digest
// (agent bytes + the global traffic totals) is pinned to constants
// checked in here. A pinned value moves only in a deliberate, documented
// re-capture (DESIGN.md §9.3 lists each one and why), so any refactor that
// silently perturbs draw order, stream assignment, or exchange semantics
// fails these tests loudly instead of only showing up in replay-pair
// comparisons (which would drift together).
//
// The digest covers everything the replay-pair tests compare — live
// membership, attributes, bitwise agent state, global traffic counters —
// folded through FNV-1a so a single u64 mismatch pinpoints a
// divergence. Scenarios cover the cycle engine at 0, 1 and 8 threads and the
// event-driven engine, each with faults disabled and under a non-trivial
// fault plan.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "sim/async_engine.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

// -- Digest ------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

void mix_traffic(std::uint64_t& h, const host::TrafficStats& t) {
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const auto& ch = t.channels[c];
    mix(h, ch.messages_sent);
    mix(h, ch.bytes_sent);
    mix(h, ch.messages_received);
    mix(h, ch.bytes_received);
  }
  mix(h, t.failed_contacts);
  mix(h, t.dropped_messages);
  mix(h, t.busy_rejections);
  mix(h, t.duplicated_messages);
  mix(h, t.corrupted_messages);
  mix(h, t.partitioned_messages);
  mix(h, t.delayed_messages);
  mix(h, t.crash_restarts);
  mix(h, t.rejected_messages);
}

// -- Test agents (identical shape to the replay-pair tests) ------------------

/// Fault-tolerant push-pull averaging agent: validates payloads before
/// merging, so digests stay finite under corruption while still exposing any
/// divergence in exchange order, loss draws, or churn trajectories.
class DigestAgent final : public host::NodeAgent {
 public:
  explicit DigestAgent(double initial) : value_(initial) {}

  [[nodiscard]] double value() const { return value_; }

  std::span<const std::byte> make_request(host::AgentContext& ctx) override {
    jitter_ = ctx.rng.uniform(0.0, 1e-12);  // Exercises the agent stream.
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

  // Checkpoint hooks: `value_` is the agent's entire persistent state
  // (jitter and scratch are per-exchange), so the golden-resume fixtures
  // below can snapshot mid-run and still land on the pinned digests.
  [[nodiscard]] bool save_state(wire::Writer& out) const override {
    out.f64(value_);
    return true;
  }
  [[nodiscard]] bool restore_state(wire::Reader& in) override {
    value_ = in.f64();
    return true;
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
    if (!std::isfinite(v) || v < 0.0 || v > 2000.0) return std::nullopt;
    return v;
  }

  double value_ = 0.0;
  double jitter_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

host::AgentFactory digest_factory() {
  return [](const host::AgentContext& ctx) {
    return std::make_unique<DigestAgent>(static_cast<double>(ctx.attribute));
  };
}

host::AttributeSource churn_values() {
  return [](rng::Rng& rng) { return static_cast<stats::Value>(rng.below(1000)); };
}

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

std::unique_ptr<host::Overlay> cyclon() {
  CyclonConfig config;
  config.view_size = 8;
  config.shuffle_size = 4;
  return std::make_unique<CyclonOverlay>(config);
}

host::FaultPlan nontrivial_plan() {
  host::FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.duplicate_rate = 0.08;
  plan.corrupt_rate = 0.08;
  plan.crash_rate = 0.01;
  plan.partition_count = 2;
  plan.partition_start = 4;
  plan.partition_heal_after = 5;
  plan.seed = 0x90de;
  return plan;
}

/// Folds the full observable end state of a host (any engine) into one u64.
template <typename EngineT>
std::uint64_t digest(EngineT& engine) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(engine.live_count()));
  for (host::NodeId id : engine.live_ids()) {
    const host::Node& node = engine.node(id);
    mix(h, static_cast<std::uint64_t>(id));
    mix(h, static_cast<double>(node.attribute));
    const auto* agent = dynamic_cast<const DigestAgent*>(node.agent.get());
    mix(h, agent != nullptr ? agent->value() : 0.0);
  }
  mix_traffic(h, engine.total_traffic());
  return h;
}

EngineConfig cycle_config(bool faults) {
  EngineConfig config;
  config.seed = 0x90de;
  config.churn_rate = 0.02;
  if (faults) config.faults = nontrivial_plan();
  return config;
}

CycleEngine make_cycle(std::size_t threads, bool faults) {
  return CycleEngine(cycle_config(faults), iota_values(64), cyclon(),
                     digest_factory(), churn_values(), threads);
}

std::uint64_t run_cycle(std::size_t threads, bool faults) {
  CycleEngine engine = make_cycle(threads, faults);
  engine.run_rounds(12);
  return digest(engine);
}

/// Golden resume (host::snapshot, DESIGN.md §12): snapshot a run on
/// `source_threads` at round 6, restore into a fresh engine on `threads`
/// (the layout is the same at any thread count) and run the remaining
/// rounds. The digest must equal the SAME pinned constant as the
/// uninterrupted run: checkpoint/restore is invisible to the replayed
/// schedule, draws included.
std::uint64_t run_cycle_resumed(std::size_t source_threads,
                                std::size_t threads, bool faults) {
  CycleEngine source = make_cycle(source_threads, faults);
  source.run_rounds(6);
  const std::vector<std::byte> bytes = source.save_snapshot();
  CycleEngine engine = make_cycle(threads, faults);
  engine.restore_snapshot(bytes);
  engine.run_rounds(6);
  return digest(engine);
}

AsyncConfig async_config(bool faults) {
  AsyncConfig config;
  config.seed = 0x90de;
  config.churn_per_second = 0.005;
  if (faults) {
    config.faults = nontrivial_plan();
    config.faults.delay_rate = 0.2;
    config.faults.max_delay = 0.3;
  }
  return config;
}

AsyncEngine make_async(bool faults) {
  return AsyncEngine(async_config(faults), iota_values(48),
                     std::make_unique<StaticRandomOverlay>(6),
                     digest_factory(), churn_values());
}

std::uint64_t run_async(bool faults) {
  AsyncEngine engine = make_async(faults);
  engine.run_until(20.0);
  return digest(engine);
}

/// Event-driven golden resume: snapshot at t=10 (queue included), restore
/// into a fresh engine, continue to t=20 — same pinned digest as the
/// uninterrupted run.
std::uint64_t run_async_resumed(bool faults) {
  AsyncEngine source = make_async(faults);
  source.run_until(10.0);
  const std::vector<std::byte> bytes = source.save_snapshot();
  AsyncEngine engine = make_async(faults);
  engine.restore_snapshot(bytes);
  engine.run_until(20.0);
  return digest(engine);
}

// -- Traced runs (observability determinism) ---------------------------------

/// Everything a recorder-attached cycle run exports, plus the end-state
/// digest, so one helper serves both halves of the obs contract: the exports
/// must be byte-identical across schedules, and attaching the recorder must
/// not perturb the run itself.
struct TracedRun {
  std::uint64_t state_digest = 0;
  std::uint64_t ring_digest = 0;
  std::string trace;
  std::string metrics;
};

template <typename EngineT>
TracedRun traced(EngineT& engine, obs::Recorder& recorder) {
  engine.set_recorder(&recorder);
  engine.run_rounds(12);
  TracedRun run;
  run.state_digest = digest(engine);
  run.ring_digest = obs::trace_digest(recorder.trace());
  run.trace = obs::trace_jsonl(recorder.trace());
  run.metrics = obs::metrics_json(recorder.metrics());
  return run;
}

TracedRun run_cycle_traced(std::size_t threads, bool faults) {
  obs::Recorder recorder;
  CycleEngine engine = make_cycle(threads, faults);
  return traced(engine, recorder);
}

// -- Fixtures ----------------------------------------------------------------
// Re-captured when the fault plan's drop_rate became the one loss mechanism
// (these fixtures no longer set a separate loss rate), and the cycle pair
// again when Cyclon's maintenance began to walk the live ids instead of its
// hash map of views, which under churn is another order, and all four when
// the per-node traffic counters left the node records: each new value is
// the old digest with the per-node term dropped, so no trajectory moved
// (DESIGN.md §9.3). A mismatch means the exchange pipeline consumed different draws, from
// different streams, or delivered differently — NOT a harmless
// implementation detail.

constexpr std::uint64_t kCycleGolden = 17156205898842800717ULL;
constexpr std::uint64_t kCycleFaultsGolden = 8462135588514758424ULL;
constexpr std::uint64_t kAsyncGolden = 17199325521173786474ULL;
constexpr std::uint64_t kAsyncFaultsGolden = 12356224210306195822ULL;

TEST(GoldenReplayTest, SerialEngineMatchesCheckedInDigest) {
  EXPECT_EQ(run_cycle(0, false), kCycleGolden);
}

TEST(GoldenReplayTest, SerialEngineUnderFaultPlanMatchesCheckedInDigest) {
  EXPECT_EQ(run_cycle(0, true), kCycleFaultsGolden);
}

TEST(GoldenReplayTest, ParallelEngineMatchesCheckedInDigest) {
  EXPECT_EQ(run_cycle(1, false), kCycleGolden);
  EXPECT_EQ(run_cycle(8, false), kCycleGolden);
}

TEST(GoldenReplayTest, ParallelEngineUnderFaultPlanMatchesCheckedInDigest) {
  EXPECT_EQ(run_cycle(1, true), kCycleFaultsGolden);
  EXPECT_EQ(run_cycle(8, true), kCycleFaultsGolden);
}

TEST(GoldenReplayTest, AsyncEngineMatchesCheckedInDigest) {
  EXPECT_EQ(run_async(false), kAsyncGolden);
}

TEST(GoldenReplayTest, AsyncEngineUnderFaultPlanMatchesCheckedInDigest) {
  EXPECT_EQ(run_async(true), kAsyncFaultsGolden);
}

// -- Golden resume (host::snapshot, DESIGN.md §12) ----------------------------
// Save at round 6 (or t=10) + restore + run to the end must reproduce the
// SAME digests as the uninterrupted fixtures above — with faults off and
// under the non-trivial plan, across all three engines. A mismatch means the
// snapshot codec dropped or perturbed replayed state (an RNG stream, a queue
// entry, a traffic counter), which would silently break crash recovery.

TEST(GoldenResumeTest, SerialResumeMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(0, 0, false), kCycleGolden);
}

TEST(GoldenResumeTest, SerialResumeUnderFaultPlanMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(0, 0, true), kCycleFaultsGolden);
}

TEST(GoldenResumeTest, ParallelResumeMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(0, 8, false), kCycleGolden);
}

TEST(GoldenResumeTest, ParallelResumeUnderFaultPlanMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(0, 8, true), kCycleFaultsGolden);
}

// A snapshot taken mid-run by the sharded engine resumes on one thread or
// on eight to the same pinned digests.
TEST(GoldenResumeTest, ShardedSourceResumeMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(8, 1, false), kCycleGolden);
  EXPECT_EQ(run_cycle_resumed(8, 8, false), kCycleGolden);
}

TEST(GoldenResumeTest,
     ShardedSourceResumeUnderFaultPlanMatchesUninterruptedDigest) {
  EXPECT_EQ(run_cycle_resumed(8, 1, true), kCycleFaultsGolden);
  EXPECT_EQ(run_cycle_resumed(8, 8, true), kCycleFaultsGolden);
}

TEST(GoldenResumeTest, AsyncResumeMatchesUninterruptedDigest) {
  EXPECT_EQ(run_async_resumed(false), kAsyncGolden);
}

TEST(GoldenResumeTest, AsyncResumeUnderFaultPlanMatchesUninterruptedDigest) {
  EXPECT_EQ(run_async_resumed(true), kAsyncFaultsGolden);
}

// -- Observability determinism (DESIGN.md §11) -------------------------------
// The cycle engine must export byte-identical traces and metrics for the
// same seed at any thread count: exchange outcomes are buffered in
// plan-position slots and drained serially after the phase, so the recorded
// stream is the plan order on every schedule. The non-trivial fault plan
// makes this bite — it exercises drops, duplicates, corruption, partitions
// and crash-restarts in the trace.

TEST(GoldenReplayTest, TraceExportsAreIdenticalAcrossSchedules) {
  for (bool faults : {false, true}) {
    const TracedRun serial = run_cycle_traced(0, faults);
    const TracedRun one = run_cycle_traced(1, faults);
    const TracedRun eight = run_cycle_traced(8, faults);

    // A 64-node, 12-round run traces far more than lifecycle events.
    EXPECT_GT(serial.trace.size(), 1000U) << "faults=" << faults;

    EXPECT_EQ(serial.ring_digest, one.ring_digest) << "faults=" << faults;
    EXPECT_EQ(serial.ring_digest, eight.ring_digest) << "faults=" << faults;
    EXPECT_EQ(serial.trace, one.trace) << "faults=" << faults;
    EXPECT_EQ(serial.trace, eight.trace) << "faults=" << faults;
    EXPECT_EQ(serial.metrics, one.metrics) << "faults=" << faults;
    EXPECT_EQ(serial.metrics, eight.metrics) << "faults=" << faults;
  }
}

TEST(GoldenReplayTest, AttachedRecorderDoesNotPerturbTheRun) {
  // Recording is observation only: the end-state digests of recorder-attached
  // runs must still match the pinned pre-obs constants.
  EXPECT_EQ(run_cycle_traced(0, false).state_digest, kCycleGolden);
  EXPECT_EQ(run_cycle_traced(0, true).state_digest, kCycleFaultsGolden);
  EXPECT_EQ(run_cycle_traced(8, true).state_digest, kCycleFaultsGolden);
}

TEST(GoldenReplayTest, FaultPlanEventsAppearInTheTrace) {
  const TracedRun run = run_cycle_traced(0, true);
  // The plan's drop/corrupt/partition rates are high enough over 12 rounds
  // that their counters must be non-zero — and they flow into the exports.
  EXPECT_NE(run.trace.find("\"kind\":\"round_end\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"kind\":\"exchange\""), std::string::npos);
  EXPECT_NE(run.metrics.find("traffic.dropped_messages"), std::string::npos);
  const TracedRun clean = run_cycle_traced(0, false);
  EXPECT_NE(run.trace, clean.trace);  // Faults visibly change the stream.
}

}  // namespace
}  // namespace adam2::sim
