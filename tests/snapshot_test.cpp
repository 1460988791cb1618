// host::snapshot codec coverage (ctest label: snapshot).
//
// Two halves, mirroring the wire_test discipline:
//
//  * Round-trip byte identity: save -> restore into a fresh
//    identically-configured engine -> save must reproduce the exact bytes,
//    and resume + run-to-round-R must land on the same bytes as the
//    uninterrupted run — for the serial, sharded and event-driven engines.
//  * A >= 10k-seeded-mutant corpus per engine family: every corrupted
//    snapshot is either rejected with a wire::DecodeError diagnostic and
//    leaves the engine untouched, or restores into a state whose re-encoded
//    snapshot is byte-identical to the mutant (canonical acceptance). Never
//    UB — the suite runs under the sanitizer jobs like everything else.
//
// Container-level mutants (checksum intact region included) are virtually
// all caught by the trailing FNV-1a checksum; a second corpus mutates only
// the section body and re-seals the checksum so the section framing, node
// table, RNG and overlay decoders are the ones under fire.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "host/snapshot.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "rng/rng.hpp"
#include "sim/async_engine.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "sim/overlay.hpp"
#include "wire/buffer.hpp"

namespace adam2::sim {
namespace {

namespace snap = host::snapshot;

// -- Snapshottable test agent ------------------------------------------------

/// Push-pull averaging agent with full checkpoint support: one f64 of
/// persistent state, re-encoded bit-exactly (jitter and scratch are
/// per-exchange and deliberately excluded — the save/restore contract covers
/// persistent protocol state only).
class SnapAgent final : public host::NodeAgent {
 public:
  explicit SnapAgent(double initial) : value_(initial) {}

  std::span<const std::byte> make_request(host::AgentContext& ctx) override {
    const double jitter = ctx.rng.uniform(0.0, 1e-12);
    scratch_ = encode(value_ + jitter);
    return scratch_;
  }

  std::span<const std::byte> handle_request(
      host::AgentContext&, std::span<const std::byte> req) override {
    const auto theirs = decode(req);
    if (!theirs) return {};
    scratch_ = encode(value_);
    value_ = (value_ + *theirs) / 2.0;
    return scratch_;
  }

  void handle_response(host::AgentContext&,
                       std::span<const std::byte> resp) override {
    const auto theirs = decode(resp);
    if (theirs) value_ = (value_ + *theirs) / 2.0;
  }

  [[nodiscard]] bool save_state(wire::Writer& out) const override {
    out.f64(value_);
    return true;
  }

  [[nodiscard]] bool restore_state(wire::Reader& in) override {
    value_ = in.f64();  // Any bit pattern is valid state: canonical as-is.
    return true;
  }

 private:
  static std::vector<std::byte> encode(double v) {
    wire::Writer w;
    w.f64(v);
    return w.take();
  }
  static std::optional<double> decode(std::span<const std::byte> bytes) {
    if (bytes.size() != sizeof(double)) return std::nullopt;
    wire::Reader r(bytes);
    return r.f64();
  }

  double value_ = 0.0;
  std::vector<std::byte> scratch_;  ///< Backs the returned spans.
};

/// Minimal agent WITHOUT snapshot hooks: saving an engine hosting one must
/// fail loudly with SnapshotError, never silently drop state.
class OpaqueAgent final : public host::NodeAgent {
 public:
  std::span<const std::byte> make_request(host::AgentContext&) override {
    return {};
  }
  std::span<const std::byte> handle_request(host::AgentContext&,
                                            std::span<const std::byte>) override {
    return {};
  }
};

host::AgentFactory snap_factory() {
  return [](const host::AgentContext& ctx) {
    return std::make_unique<SnapAgent>(static_cast<double>(ctx.attribute));
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
  config.view_size = 6;
  config.shuffle_size = 3;
  return std::make_unique<CyclonOverlay>(config);
}

/// Churn plus a light fault plan so snapshots carry dead node records,
/// crash-restart counters and non-trivial traffic — richer decode surface
/// for the mutant corpus than a fault-free run.
EngineConfig cycle_config() {
  EngineConfig config;
  config.seed = 0x5eed;
  config.churn_rate = 0.03;
  config.faults.drop_rate = 0.05;
  config.faults.crash_rate = 0.01;
  config.faults.seed = 0x5eed;
  return config;
}

CycleEngine make_cycle_engine() {
  return CycleEngine(cycle_config(), iota_values(24), cyclon(), snap_factory(),
                     churn_values());
}

AsyncConfig async_config() {
  AsyncConfig config;
  config.seed = 0x5eed;
  config.faults.drop_rate = 0.02;
  config.churn_per_second = 0.01;
  return config;
}

AsyncEngine make_async_engine() {
  return AsyncEngine(async_config(), iota_values(24),
                     std::make_unique<StaticRandomOverlay>(5), snap_factory(),
                     churn_values());
}

// -- Round-trip byte identity ------------------------------------------------

TEST(SnapshotRoundTripTest, CycleSaveRestoreSaveIsByteIdentical) {
  CycleEngine original = make_cycle_engine();
  original.run_rounds(8);
  const std::vector<std::byte> bytes = original.save_snapshot();

  CycleEngine resumed = make_cycle_engine();
  resumed.restore_snapshot(bytes);
  EXPECT_EQ(resumed.save_snapshot(), bytes);

  // Resume + run-to-round-R lands on the uninterrupted run's exact bytes.
  original.run_rounds(4);
  resumed.run_rounds(4);
  EXPECT_EQ(resumed.save_snapshot(), original.save_snapshot());
}

TEST(SnapshotRoundTripTest, SerialAndShardedEnginesShareTheLayout) {
  CycleEngine serial = make_cycle_engine();
  serial.run_rounds(6);
  const std::vector<std::byte> bytes = serial.save_snapshot();
  serial.run_rounds(6);

  // A serial snapshot restores into the sharded engine (and vice versa):
  // the shards are per-round scratch, not persistent state.
  CycleEngine sharded(cycle_config(), iota_values(24), cyclon(), snap_factory(),
                      churn_values(), 8);
  sharded.restore_snapshot(bytes);
  EXPECT_EQ(sharded.save_snapshot(), bytes);
  sharded.run_rounds(6);
  EXPECT_EQ(sharded.save_snapshot(), serial.save_snapshot());
}

TEST(SnapshotRoundTripTest, AsyncSaveRestoreSaveIsByteIdentical) {
  AsyncEngine original = make_async_engine();
  original.run_until(10.0);
  const std::vector<std::byte> bytes = original.save_snapshot();

  AsyncEngine resumed = make_async_engine();
  resumed.restore_snapshot(bytes);
  EXPECT_EQ(resumed.save_snapshot(), bytes);

  original.run_until(20.0);
  resumed.run_until(20.0);
  EXPECT_EQ(resumed.save_snapshot(), original.save_snapshot());
}

/// Resume under churn at scale: 2000 nodes on the default Cyclon views, 1%
/// churn per round, a snapshot at round 10 restored into a fresh engine,
/// then 20 more rounds on both. The 24-node fixtures above are too small to
/// show an overlay walk order that the snapshot does not restore.
void expect_churn_resume_at_scale(std::size_t threads) {
  EngineConfig config;
  config.seed = 0x5eed;
  config.churn_rate = 0.01;
  const auto make = [&] {
    return CycleEngine(config, iota_values(2000),
                       std::make_unique<CyclonOverlay>(CyclonConfig{}),
                       snap_factory(), churn_values(), threads);
  };
  CycleEngine original = make();
  original.run_rounds(10);
  CycleEngine resumed = make();
  resumed.restore_snapshot(original.save_snapshot());
  original.run_rounds(20);
  resumed.run_rounds(20);
  EXPECT_EQ(snap::fnv1a(resumed.save_snapshot()),
            snap::fnv1a(original.save_snapshot()));
}

TEST(SnapshotRoundTripTest, ChurnResumeAtScaleIsBitIdenticalSerial) {
  expect_churn_resume_at_scale(1);
}

TEST(SnapshotRoundTripTest, ChurnResumeAtScaleIsBitIdenticalSharded) {
  expect_churn_resume_at_scale(4);
}

TEST(SnapshotRoundTripTest, FreshEngineSnapshotRestoresBeforeAnyRound) {
  // Round-0 snapshots (no exchanges yet) are valid checkpoints too.
  CycleEngine original = make_cycle_engine();
  const std::vector<std::byte> bytes = original.save_snapshot();
  CycleEngine resumed = make_cycle_engine();
  resumed.restore_snapshot(bytes);
  EXPECT_EQ(resumed.save_snapshot(), bytes);
}

// -- Encode-side failures ----------------------------------------------------

TEST(SnapshotEncodeTest, UnsupportedAgentTypeThrowsSnapshotError) {
  CycleEngine engine(cycle_config(), iota_values(8), cyclon(),
                     [](const host::AgentContext&) {
                       return std::make_unique<OpaqueAgent>();
                     },
                     churn_values());
  EXPECT_THROW((void)engine.save_snapshot(), snap::SnapshotError);
}

// -- Container-level rejections ----------------------------------------------

/// Feeds `bytes` to a fresh cycle engine and requires a clean DecodeError
/// whose diagnostic is non-empty; the engine must be left byte-identical to
/// its pre-restore state.
void expect_rejected(const std::vector<std::byte>& bytes,
                     const std::string& context) {
  CycleEngine engine = make_cycle_engine();
  const std::vector<std::byte> before = engine.save_snapshot();
  try {
    engine.restore_snapshot(bytes);
    FAIL() << context << ": malformed snapshot was accepted";
  } catch (const wire::DecodeError& error) {
    EXPECT_NE(std::string(error.what()), "") << context;
  }
  EXPECT_EQ(engine.save_snapshot(), before) << context;
}

/// Recomputes and replaces the trailing checksum so mutations *before* it
/// exercise the decoders instead of the checksum gate.
std::vector<std::byte> reseal(std::vector<std::byte> bytes) {
  bytes.resize(bytes.size() - 8);
  wire::Writer out;
  out.bytes(bytes);
  out.u64(snap::fnv1a(out.view()));
  return out.take();
}

TEST(SnapshotContainerTest, RejectsEmptyAndTinyInputs) {
  expect_rejected({}, "empty");
  expect_rejected(std::vector<std::byte>(19, std::byte{0}), "19 zero bytes");
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  CycleEngine engine = make_cycle_engine();
  std::vector<std::byte> bytes = engine.save_snapshot();
  bytes[0] ^= std::byte{0xff};
  expect_rejected(reseal(std::move(bytes)), "bad magic");
}

TEST(SnapshotContainerTest, RejectsUnsupportedFormatVersion) {
  CycleEngine engine = make_cycle_engine();
  // 2: the layout whose node records still carried traffic counters.
  for (const std::uint8_t version : {2, 99}) {
    std::vector<std::byte> bytes = engine.save_snapshot();
    bytes[4] = std::byte{version};  // Version field, little-endian low byte.
    expect_rejected(reseal(std::move(bytes)),
                    "version " + std::to_string(version));
  }
}

TEST(SnapshotContainerTest, RejectsEngineKindMismatch) {
  CycleEngine cycle = make_cycle_engine();
  const std::vector<std::byte> bytes = cycle.save_snapshot();
  AsyncEngine async = make_async_engine();
  const std::vector<std::byte> before = async.save_snapshot();
  EXPECT_THROW(async.restore_snapshot(bytes), wire::DecodeError);
  EXPECT_EQ(async.save_snapshot(), before);
}

TEST(SnapshotContainerTest, RejectsChecksumMismatch) {
  CycleEngine engine = make_cycle_engine();
  std::vector<std::byte> bytes = engine.save_snapshot();
  bytes.back() ^= std::byte{0x01};
  expect_rejected(bytes, "flipped checksum bit");
}

TEST(SnapshotContainerTest, RejectsTruncationAtEveryBoundary) {
  CycleEngine engine = make_cycle_engine();
  engine.run_rounds(3);
  const std::vector<std::byte> bytes = engine.save_snapshot();
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{12},
                           std::size_t{16}, bytes.size() / 2,
                           bytes.size() - 1}) {
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_rejected(cut, "truncated to " + std::to_string(keep));
  }
}

TEST(SnapshotContainerTest, RejectsTrailingGarbage) {
  CycleEngine engine = make_cycle_engine();
  std::vector<std::byte> bytes = engine.save_snapshot();
  bytes.insert(bytes.end(), 8, std::byte{0xab});
  expect_rejected(bytes, "8 garbage bytes appended");
}

/// Named edits that each move one config field off the test configs' value.
template <typename ConfigT>
using ConfigEdits =
    std::vector<std::pair<std::string, std::function<void(ConfigT&)>>>;

/// `edits` plus one edit per FaultPlan field of the config's `faults`.
template <typename ConfigT>
ConfigEdits<ConfigT> with_plan_edits(ConfigEdits<ConfigT> edits) {
  const ConfigEdits<host::FaultPlan> plan_edits = {
      {"drop_rate", [](host::FaultPlan& p) { p.drop_rate += 0.01; }},
      {"duplicate_rate", [](host::FaultPlan& p) { p.duplicate_rate += 0.01; }},
      {"corrupt_rate", [](host::FaultPlan& p) { p.corrupt_rate += 0.01; }},
      {"delay_rate", [](host::FaultPlan& p) { p.delay_rate += 0.01; }},
      {"max_delay", [](host::FaultPlan& p) { p.max_delay += 0.01; }},
      {"crash_rate", [](host::FaultPlan& p) { p.crash_rate += 0.01; }},
      {"partition_count", [](host::FaultPlan& p) { p.partition_count += 2; }},
      {"partition_start", [](host::FaultPlan& p) { ++p.partition_start; }},
      {"partition_heal_after",
       [](host::FaultPlan& p) { ++p.partition_heal_after; }},
      {"seed", [](host::FaultPlan& p) { ++p.seed; }},
      {"warm_restart",
       [](host::FaultPlan& p) { p.warm_restart = !p.warm_restart; }},
  };
  for (const auto& entry : plan_edits) {
    const auto& edit = entry.second;
    edits.emplace_back("faults." + entry.first,
                       [edit](ConfigT& config) { edit(config.faults); });
  }
  return edits;
}

TEST(SnapshotContainerTest, RejectsConfigMismatch) {
  // A snapshot resumes only under the exact configuration that saved it, so
  // a change to any engine-config or fault-plan field must reject (not
  // silently change the replayed schedule) and leave the engine untouched.
  CycleEngine cycle = make_cycle_engine();
  cycle.run_rounds(2);
  const std::vector<std::byte> cycle_bytes = cycle.save_snapshot();
  for (const auto& [field, edit] : with_plan_edits<EngineConfig>({
           {"churn_rate", [](EngineConfig& c) { c.churn_rate += 0.01; }},
           {"seed", [](EngineConfig& c) { ++c.seed; }},
       })) {
    EngineConfig other = cycle_config();
    edit(other);
    CycleEngine mismatched(other, iota_values(24), cyclon(), snap_factory(),
                           churn_values());
    const std::vector<std::byte> before = mismatched.save_snapshot();
    EXPECT_THROW(mismatched.restore_snapshot(cycle_bytes), wire::DecodeError)
        << field;
    EXPECT_EQ(mismatched.save_snapshot(), before) << field;
  }

  AsyncEngine async = make_async_engine();
  async.run_until(3.0);
  const std::vector<std::byte> async_bytes = async.save_snapshot();
  for (const auto& [field, edit] : with_plan_edits<AsyncConfig>({
           {"gossip_period", [](AsyncConfig& c) { c.gossip_period += 0.1; }},
           {"period_jitter", [](AsyncConfig& c) { c.period_jitter += 0.01; }},
           {"latency_min", [](AsyncConfig& c) { c.latency_min += 0.001; }},
           {"latency_max", [](AsyncConfig& c) { c.latency_max += 0.01; }},
           {"churn_per_second",
            [](AsyncConfig& c) { c.churn_per_second += 0.01; }},
           {"seed", [](AsyncConfig& c) { ++c.seed; }},
       })) {
    AsyncConfig other = async_config();
    edit(other);
    AsyncEngine mismatched(other, iota_values(24),
                           std::make_unique<StaticRandomOverlay>(5),
                           snap_factory(), churn_values());
    const std::vector<std::byte> before = mismatched.save_snapshot();
    EXPECT_THROW(mismatched.restore_snapshot(async_bytes), wire::DecodeError)
        << field;
    EXPECT_EQ(mismatched.save_snapshot(), before) << field;
  }
}

// -- The restore path both engines share (sim::Population) -------------------

/// Restores `bytes` into `engine` and requires the overlay-kind refusal,
/// with the engine left byte-identical to its pre-restore state.
template <typename EngineT>
void expect_overlay_kind_refused(EngineT& engine,
                                 const std::vector<std::byte>& bytes) {
  const std::vector<std::byte> before = engine.save_snapshot();
  try {
    engine.restore_snapshot(bytes);
    ADD_FAILURE() << "a snapshot of another overlay kind was accepted";
  } catch (const wire::DecodeError& error) {
    EXPECT_EQ(std::string(error.what()), "snapshot overlay kind mismatch");
  }
  EXPECT_EQ(engine.save_snapshot(), before);
}

TEST(SnapshotRestoreTest, OverlayKindMismatchIsRefusedOnBothEngines) {
  // A static-overlay snapshot restored under the same config on Cyclon.
  CycleEngine cycle_source(cycle_config(), iota_values(24),
                           std::make_unique<StaticRandomOverlay>(5),
                           snap_factory(), churn_values());
  cycle_source.run_rounds(3);
  CycleEngine cycle = make_cycle_engine();
  expect_overlay_kind_refused(cycle, cycle_source.save_snapshot());

  AsyncEngine async_source = make_async_engine();
  async_source.run_until(3.0);
  AsyncEngine async(async_config(), iota_values(24), cyclon(), snap_factory(),
                    churn_values());
  expect_overlay_kind_refused(async, async_source.save_snapshot());
}

/// The manifest's entry for `key`, or nullopt when it is not set.
std::optional<std::string> manifest_entry(const obs::Recorder& recorder,
                                          std::string_view key) {
  for (const auto& [name, value] : recorder.manifest().config) {
    if (name == key) return value;
  }
  return std::nullopt;
}

/// Restores `bytes` into `engine` with a recorder attached and requires the
/// manifest to name the restored round and the snapshot's digest.
template <typename EngineT>
void expect_resume_recorded(EngineT& engine,
                            const std::vector<std::byte>& bytes,
                            host::Round restored_round) {
  obs::Recorder recorder;
  engine.set_recorder(&recorder);
  engine.restore_snapshot(bytes);
  engine.set_recorder(nullptr);
  EXPECT_EQ(engine.round(), restored_round);
  EXPECT_EQ(manifest_entry(recorder, "resume_round"),
            std::to_string(restored_round));
  EXPECT_EQ(manifest_entry(recorder, "resume_digest"),
            std::to_string(snap::fnv1a(bytes)));
}

TEST(SnapshotRestoreTest, RestoreRecordsTheResumePointOnBothEngines) {
  CycleEngine cycle_source = make_cycle_engine();
  cycle_source.run_rounds(5);
  CycleEngine cycle = make_cycle_engine();
  expect_resume_recorded(cycle, cycle_source.save_snapshot(), 5);

  // The restored round, not the target's pre-restore one (0).
  AsyncEngine async_source = make_async_engine();
  async_source.run_until(7.5);
  AsyncEngine async = make_async_engine();
  expect_resume_recorded(async, async_source.save_snapshot(), 7);
}

// -- Ids out of range --------------------------------------------------------
//
// A node's id is its position in the node table, and the engines index
// per-node state by id. A restore therefore refuses any id that does not
// name a restored node before it becomes an index.

/// A kSectionNodes payload of dead node records carrying `ids`.
std::vector<std::byte> dead_node_records(std::span<const host::NodeId> ids) {
  wire::Writer out;
  out.length(ids.size());
  for (host::NodeId id : ids) {
    out.u64(id);
    out.i64(0);  // Attribute.
    out.u32(0);  // Birth round.
    out.u8(0);   // Dead: no agent blob.
    for (int stream = 0; stream < 3; ++stream) {
      snap::write_rng(out, rng::Rng(0));
    }
  }
  out.length(0);  // Empty live order.
  return out.take();
}

TEST(SnapshotIdTest, NodeRecordIdsMustEqualTheirPosition) {
  const auto restore = [](std::span<const host::NodeId> ids) {
    const std::vector<std::byte> payload = dead_node_records(ids);
    wire::Reader in(payload);
    host::NodeTable table;
    snap::read_node_table(in, table, [](host::Node&) { return nullptr; });
    in.expect_done();
    return table.size();
  };
  EXPECT_EQ(restore(std::vector<host::NodeId>{0, 1, 2}), 3u);
  EXPECT_THROW((void)restore(std::vector<host::NodeId>{0, 1, 3}),
               wire::DecodeError);
  EXPECT_THROW((void)restore(std::vector<host::NodeId>{1}), wire::DecodeError);
}

TEST(SnapshotFieldTest, RngStateRefusesANegativeZeroWithoutACachedNormal) {
  // With no cached normal, state() reports +0.0. A -0.0 compares equal to
  // it but would re-encode as +0.0, so accepting it would not be canonical.
  wire::Writer out;
  snap::write_rng(out, rng::Rng(1));
  std::vector<std::byte> bytes = out.take();
  bytes[39] = std::byte{0x80};  // Sign bit of the cached-normal f64.
  wire::Reader in(bytes);
  rng::Rng restored(0);
  EXPECT_THROW(snap::read_rng(in, restored), wire::DecodeError);
}

/// A snapshot's sections as (tag, payload) pairs, in order.
using Sections = std::vector<std::pair<std::uint32_t, std::vector<std::byte>>>;

Sections split_sections(std::span<const std::byte> bytes) {
  wire::Reader in(bytes.subspan(12, bytes.size() - 20));  // Header, checksum.
  Sections sections;
  while (!in.done()) {
    const std::uint32_t tag = in.u32();
    const auto payload = in.bytes(in.u32());
    sections.emplace_back(
        tag, std::vector<std::byte>(payload.begin(), payload.end()));
  }
  return sections;
}

std::vector<std::byte> join_sections(snap::EngineKind kind,
                                     const Sections& sections) {
  snap::SnapshotWriter writer(kind);
  for (const auto& [tag, payload] : sections) {
    writer.begin_section(tag);
    writer.out().bytes(payload);
    writer.end_section();
  }
  return writer.finish();
}

TEST(SnapshotIdTest, AsyncBusySetMustNameLiveNodes) {
  AsyncEngine source = make_async_engine();
  source.run_until(40.0);
  const std::vector<std::byte> bytes = source.save_snapshot();
  ASSERT_EQ(join_sections(snap::EngineKind::kAsync, split_sections(bytes)),
            bytes);

  // The async Engine section ends with the busy set, after the clock (f64),
  // the event counter (u64), the global stream (41 B) and the traffic
  // totals (21 u64). Replace it by one entry.
  constexpr std::size_t kBusySetOffset = 8 + 8 + 41 + 21 * 8;
  const auto with_busy_entry = [&](host::NodeId id, double until) {
    Sections sections = split_sections(bytes);
    std::vector<std::byte>& engine = sections.at(1).second;
    wire::Writer payload;
    payload.bytes(std::span<const std::byte>(engine).first(kBusySetOffset));
    payload.length(1);
    payload.u64(id);
    payload.f64(until);
    engine = payload.take();
    return join_sections(snap::EngineKind::kAsync, sections);
  };

  const auto live = source.live_ids();
  const host::NodeId last_live = *std::max_element(live.begin(), live.end());
  std::optional<host::NodeId> dead;
  for (host::NodeId id = 0; id < last_live; ++id) {
    if (!source.is_live(id)) dead = id;
  }
  ASSERT_TRUE(dead.has_value()) << "the run churned no node out";
  const double until = source.now() + 1.0;

  // Control: the same edit naming a live node restores canonically.
  AsyncEngine victim = make_async_engine();
  const std::vector<std::byte> accepted = with_busy_entry(last_live, until);
  victim.restore_snapshot(accepted);
  EXPECT_EQ(victim.save_snapshot(), accepted);

  const std::vector<std::byte> before = victim.save_snapshot();
  for (const auto& [what, mutant] :
       std::vector<std::pair<std::string, std::vector<std::byte>>>{
           {"dead node", with_busy_entry(*dead, until)},
           {"unknown node", with_busy_entry(last_live + 1000, until)},
           {"id with a high byte set",
            with_busy_entry(last_live | (host::NodeId{1} << 56), until)},
           {"NaN lock time",
            with_busy_entry(last_live,
                            std::numeric_limits<double>::quiet_NaN())},
       }) {
    EXPECT_THROW(victim.restore_snapshot(mutant), wire::DecodeError) << what;
    EXPECT_EQ(victim.save_snapshot(), before) << what;
  }
}

/// A restored node table of `size` nodes in which exactly `live` are alive.
host::NodeTable node_table(std::size_t size, std::vector<host::NodeId> live) {
  host::NodeTable table;
  for (host::NodeId id = 0; id < size; ++id) {
    (void)table.restore_node(0, 0, std::ranges::find(live, id) != live.end());
  }
  table.finish_restore(live);
  return table;
}

/// Restores `blob` into `overlay` against `table`; false when the overlay
/// refuses it.
bool restores(host::Overlay& overlay, const std::vector<std::byte>& blob,
              const host::NodeTable& table) {
  wire::Reader in(blob);
  try {
    overlay.restore_state(in, table);
  } catch (const wire::DecodeError&) {
    return false;
  }
  return true;
}

TEST(SnapshotIdTest, StaticOverlayOwnerIdsMustBeBelowTheNodeCount) {
  StaticRandomOverlay overlay(5);
  const auto blob = [](host::NodeId owner) {  // One owner, no links.
    wire::Writer out;
    out.u64(5);
    out.length(1);
    out.u64(owner);
    out.length(0);
    return out.take();
  };
  const host::NodeTable table = node_table(4, {0, 1, 2, 3});
  EXPECT_TRUE(restores(overlay, blob(3), table));
  EXPECT_FALSE(restores(overlay, blob(4), table));
  EXPECT_FALSE(restores(overlay, blob(host::NodeId{1} << 56), table));
}

TEST(SnapshotIdTest, CyclonOwnerIdsMustBeBelowTheNodeCount) {
  CyclonConfig config;
  config.view_size = 6;
  config.shuffle_size = 3;
  CyclonOverlay overlay(config);
  const auto blob = [&](host::NodeId owner) {  // One owner, empty view.
    wire::Writer out;
    out.u64(config.view_size);
    out.u64(config.shuffle_size);
    out.u64(config.value_cache_size);
    out.length(1);
    out.u64(owner);
    out.length(0);
    out.length(0);
    return out.take();
  };
  const host::NodeTable table = node_table(4, {3});
  EXPECT_TRUE(restores(overlay, blob(3), table));
  EXPECT_FALSE(restores(overlay, blob(4), table));
  EXPECT_FALSE(restores(overlay, blob(host::NodeId{1} << 56), table));
}

/// A Cyclon overlay blob (view size 6, shuffle size 3, default cache) with
/// one view per owner, each naming `peer` and caching nothing.
std::vector<std::byte> cyclon_blob(const std::vector<host::NodeId>& owners,
                                   host::NodeId peer) {
  const CyclonConfig config{.view_size = 6, .shuffle_size = 3};
  wire::Writer out;
  out.u64(config.view_size);
  out.u64(config.shuffle_size);
  out.u64(config.value_cache_size);
  out.length(owners.size());
  for (host::NodeId owner : owners) {
    out.u64(owner);
    out.length(1);
    out.u64(peer);
    out.u32(0);
    out.i64(0);
    out.length(0);
  }
  return out.take();
}

TEST(SnapshotIdTest, CyclonRefusesAViewForANodeThatIsNotLive) {
  CyclonOverlay overlay({.view_size = 6, .shuffle_size = 3});
  const host::NodeTable table = node_table(3, {0, 2});
  EXPECT_TRUE(restores(overlay, cyclon_blob({0, 2}, 0), table));
  // As many views as live nodes, but node 1 departed.
  EXPECT_FALSE(restores(overlay, cyclon_blob({0, 1}, 0), table));
}

TEST(SnapshotIdTest, CyclonRefusesALiveNodeWithoutAView) {
  CyclonOverlay overlay({.view_size = 6, .shuffle_size = 3});
  const host::NodeTable table = node_table(3, {0, 1, 2});
  EXPECT_TRUE(restores(overlay, cyclon_blob({0, 1, 2}, 2), table));
  // Node 2 is live and named by both views, but has none of its own: the
  // next maintain would shuffle with it.
  EXPECT_FALSE(restores(overlay, cyclon_blob({0, 1}, 2), table));
}

// -- Mutant corpus -----------------------------------------------------------

constexpr int kMutantsPerCorpus = 10'000;

/// Same mutation kinds as the wire_test corpus: truncate, extend, truncate
/// then flip, flip 1-8 bytes in place.
std::vector<std::byte> mutate(std::vector<std::byte> bytes, rng::Rng& rng) {
  const auto flip_some = [&rng](std::vector<std::byte>& target) {
    if (target.empty()) return;
    for (std::uint64_t i = 1 + rng.below(8); i > 0; --i) {
      target[rng.below(target.size())] ^=
          static_cast<std::byte>(1 + rng.below(255));
    }
  };
  switch (rng.below(4)) {
    case 0:
      if (!bytes.empty()) bytes.resize(rng.below(bytes.size()));
      break;
    case 1:
      for (std::uint64_t i = 1 + rng.below(8); i > 0; --i) {
        bytes.push_back(static_cast<std::byte>(rng() & 0xff));
      }
      break;
    case 2:
      if (!bytes.empty()) bytes.resize(1 + rng.below(bytes.size()));
      flip_some(bytes);
      break;
    default:
      flip_some(bytes);
      break;
  }
  return bytes;
}

/// Mutates only the section-body region (between the 12-byte header and the
/// 8-byte checksum), then re-seals the checksum: the container gate passes
/// and the section framing + payload decoders face the corruption.
std::vector<std::byte> mutate_body(const std::vector<std::byte>& pristine,
                                   rng::Rng& rng) {
  std::vector<std::byte> body(pristine.begin() + 12, pristine.end() - 8);
  body = mutate(std::move(body), rng);
  wire::Writer out;
  out.bytes(std::span<const std::byte>(pristine.data(), 12));
  out.bytes(body);
  out.u64(snap::fnv1a(out.view()));
  return out.take();
}

/// The accept-or-reject oracle, run against a long-lived victim engine:
/// rejection must throw DecodeError with a diagnostic and leave the engine's
/// re-encoded state untouched; acceptance must be canonical — the engine's
/// re-encoded snapshot reproduces the mutant byte for byte. Any other
/// exception (or a non-canonical acceptance) fails the test.
template <typename EngineT>
class MutantOracle {
 public:
  explicit MutantOracle(EngineT& engine)
      : engine_(engine), expected_(engine.save_snapshot()) {}

  void feed(const std::vector<std::byte>& mutant, int index) {
    try {
      engine_.restore_snapshot(mutant);
    } catch (const wire::DecodeError& error) {
      ++rejected_;
      ASSERT_NE(std::string(error.what()), "") << "mutant " << index;
      // Reject-don't-crash also means reject-don't-corrupt: the engine
      // still re-encodes exactly its pre-restore state.
      ASSERT_EQ(engine_.save_snapshot(), expected_) << "mutant " << index;
      return;
    }
    ++accepted_;
    const std::vector<std::byte> reencoded = engine_.save_snapshot();
    ASSERT_EQ(reencoded.size(), mutant.size()) << "mutant " << index;
    ASSERT_EQ(reencoded, mutant) << "mutant " << index;
    expected_ = mutant;
  }

  [[nodiscard]] int accepted() const { return accepted_; }
  [[nodiscard]] int rejected() const { return rejected_; }

 private:
  EngineT& engine_;
  std::vector<std::byte> expected_;
  int accepted_ = 0;
  int rejected_ = 0;
};

TEST(SnapshotMutantCorpusTest, CycleContainerMutantsRejectedOrCanonical) {
  CycleEngine source = make_cycle_engine();
  source.run_rounds(6);
  const std::vector<std::byte> pristine = source.save_snapshot();

  CycleEngine victim = make_cycle_engine();
  MutantOracle<CycleEngine> oracle(victim);
  rng::Rng rng(0x5a405a40);
  for (int i = 0; i < kMutantsPerCorpus; ++i) {
    oracle.feed(mutate(pristine, rng), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Whole-container mutants are essentially always caught by the checksum;
  // what matters is that every one of them died cleanly.
  EXPECT_EQ(oracle.accepted() + oracle.rejected(), kMutantsPerCorpus);
  EXPECT_GT(oracle.rejected(), 0);
}

TEST(SnapshotMutantCorpusTest, CycleBodyMutantsRejectedOrCanonical) {
  CycleEngine source = make_cycle_engine();
  source.run_rounds(6);
  const std::vector<std::byte> pristine = source.save_snapshot();

  CycleEngine victim = make_cycle_engine();
  MutantOracle<CycleEngine> oracle(victim);
  rng::Rng rng(0xb0d7b0d7);
  for (int i = 0; i < kMutantsPerCorpus; ++i) {
    oracle.feed(mutate_body(pristine, rng), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Checksum-sealed body mutants must exercise BOTH fates, or the corpus
  // proves nothing about canonical acceptance.
  EXPECT_GT(oracle.accepted(), 0);
  EXPECT_GT(oracle.rejected(), 0);
}

TEST(SnapshotMutantCorpusTest, AsyncBodyMutantsRejectedOrCanonical) {
  AsyncEngine source = make_async_engine();
  source.run_until(8.0);
  const std::vector<std::byte> pristine = source.save_snapshot();

  AsyncEngine victim = make_async_engine();
  MutantOracle<AsyncEngine> oracle(victim);
  rng::Rng rng(0xa57ca57c);
  for (int i = 0; i < kMutantsPerCorpus; ++i) {
    oracle.feed(mutate_body(pristine, rng), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(oracle.accepted(), 0);
  EXPECT_GT(oracle.rejected(), 0);
}

// -- File I/O ----------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("adam2_snapshot_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotFileTest, WriteThenReadRoundTrips) {
  CycleEngine engine = make_cycle_engine();
  engine.run_rounds(4);
  const std::vector<std::byte> bytes = engine.save_snapshot();

  const auto path = dir_ / "state.snap";
  ASSERT_TRUE(obs::atomic_write_file(path, bytes));
  const auto loaded = snap::read_snapshot_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, bytes);

  // The atomic-rename discipline leaves no temp droppings behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  CycleEngine resumed = make_cycle_engine();
  resumed.restore_snapshot(*loaded);
  EXPECT_EQ(resumed.save_snapshot(), bytes);
}

TEST_F(SnapshotFileTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(
      snap::read_snapshot_file(dir_ / "nope.snap", &error).has_value());
  EXPECT_NE(error, "");
}

TEST_F(SnapshotFileTest, OversizedFileIsRefused) {
  CycleEngine engine = make_cycle_engine();
  const std::vector<std::byte> bytes = engine.save_snapshot();
  const auto path = dir_ / "state.snap";
  ASSERT_TRUE(obs::atomic_write_file(path, bytes));
  std::string error;
  EXPECT_FALSE(snap::read_snapshot_file(path, &error, bytes.size() - 1)
                   .has_value());
  EXPECT_NE(error, "");
}

TEST_F(SnapshotFileTest, CreatesParentDirectoriesButFailsCleanlyOtherwise) {
  CycleEngine engine = make_cycle_engine();
  const std::vector<std::byte> bytes = engine.save_snapshot();
  // Missing parent directories are created (checkpoint paths come from
  // flags; requiring a pre-made directory would make --snapshot-out flaky).
  EXPECT_TRUE(obs::atomic_write_file(dir_ / "sub" / "state.snap", bytes));
  // A non-directory in the path cannot be papered over: clean false.
  ASSERT_TRUE(obs::atomic_write_file(dir_ / "blocker", bytes));
  EXPECT_FALSE(
      obs::atomic_write_file(dir_ / "blocker" / "state.snap", bytes));
}

}  // namespace
}  // namespace adam2::sim
