// Unit tests for the observability layer (DESIGN.md §11): metrics registry
// semantics, trace-ring wraparound, the exporters' exact byte formats, and
// the atomic artifact writer. The cross-engine trace-determinism checks
// (serial ≡ parallel ×8 under faults) live in golden_replay_test.cpp.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "host/traffic.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"

namespace adam2::obs {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::span<const std::byte> bytes_of(std::string_view text) {
  return std::as_bytes(std::span(text));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableIds) {
  MetricsRegistry registry;
  const auto a = registry.counter("exchanges");
  const auto b = registry.gauge("live");
  EXPECT_EQ(registry.counter("exchanges"), a);
  EXPECT_EQ(registry.gauge("live"), b);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.metrics().size(), 2U);

  registry.add(a);
  registry.add(a, 6);
  registry.set(b, 2.5);
  EXPECT_EQ(registry.counter_value("exchanges"), 7U);
  EXPECT_DOUBLE_EQ(registry.gauge_value("live"), 2.5);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  const auto id = registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_THROW((void)registry.histogram("x", bounds), std::logic_error);
  // Updating through the wrong typed mutator is equally rejected.
  EXPECT_THROW(registry.set(id, 1.0), std::logic_error);
  EXPECT_THROW(registry.observe(id, 1.0), std::logic_error);
  EXPECT_THROW(registry.add(MetricsRegistry::Id{99}), std::out_of_range);
}

TEST(MetricsRegistry, HistogramBoundsMustStrictlyIncrease) {
  MetricsRegistry registry;
  const std::vector<double> equal = {1.0, 1.0};
  const std::vector<double> descending = {2.0, 1.0};
  EXPECT_THROW((void)registry.histogram("h", equal), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("h", descending),
               std::invalid_argument);
  EXPECT_EQ(registry.find("h"), nullptr);  // Nothing half-registered.
}

TEST(MetricsRegistry, HistogramBucketsUseInclusiveUpperBounds) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {10.0, 20.0};
  const auto id = registry.histogram("bytes", bounds);
  registry.observe(id, 5.0);    // <= 10 -> bucket 0
  registry.observe(id, 10.0);   // <= 10 -> bucket 0 (inclusive)
  registry.observe(id, 15.0);   // <= 20 -> bucket 1
  registry.observe(id, 100.0);  // above every bound -> overflow bucket

  const Metric* metric = registry.find("bytes");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->count, 4U);
  EXPECT_DOUBLE_EQ(metric->value, 130.0);
  EXPECT_EQ(metric->buckets, (std::vector<std::uint64_t>{2, 1, 1}));

  // Re-registering keeps the accumulated tallies.
  EXPECT_EQ(registry.histogram("bytes", bounds), id);
  EXPECT_EQ(registry.find("bytes")->count, 4U);
}

TEST(MetricsRegistry, ConvenienceReadersDefaultToZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("absent"), 0U);
  EXPECT_DOUBLE_EQ(registry.gauge_value("absent"), 0.0);
  // Wrong-kind reads are 0, not a throw: the readers are for reporting.
  (void)registry.gauge("g");
  EXPECT_EQ(registry.counter_value("g"), 0U);
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TEST(TraceRing, StampsSequenceNumbersAtPush) {
  TraceRing ring(8);
  for (int i = 0; i < 3; ++i) {
    TraceEvent event;
    event.kind = EventKind::kRoundBegin;
    event.value_a = static_cast<std::uint64_t>(i);
    ring.push(event);
  }
  EXPECT_EQ(ring.size(), 3U);
  EXPECT_EQ(ring.total(), 3U);
  EXPECT_EQ(ring.dropped(), 0U);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).seq, i);
    EXPECT_EQ(ring.at(i).value_a, i);
  }
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4U);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event;
    event.value_a = static_cast<std::uint64_t>(i);
    ring.push(event);
  }
  EXPECT_EQ(ring.size(), 4U);
  EXPECT_EQ(ring.total(), 10U);
  EXPECT_EQ(ring.dropped(), 6U);
  // at() stays chronological across the wrap: oldest retained first.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).value_a, 6U + i);
    EXPECT_EQ(ring.at(i).seq, 6U + i);
  }

  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.total(), 0U);
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1U);
  ring.push(TraceEvent{});
  ring.push(TraceEvent{});
  EXPECT_EQ(ring.size(), 1U);
  EXPECT_EQ(ring.at(0).seq, 1U);
}

TEST(TraceRing, DigestDetectsStreamDifferences) {
  TraceRing a(16);
  TraceRing b(16);
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.round = static_cast<host::Round>(i);
    event.kind = EventKind::kRoundEnd;
    event.value_a = 64;
    a.push(event);
    b.push(event);
  }
  EXPECT_EQ(trace_digest(a), trace_digest(b));

  TraceEvent extra;
  extra.kind = EventKind::kCrashRestart;
  extra.a = 7;
  b.push(extra);
  EXPECT_NE(trace_digest(a), trace_digest(b));
}

// ---------------------------------------------------------------------------
// Exporters: exact byte formats
// ---------------------------------------------------------------------------

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nfeed\ttab\rret"),
            "line\\nfeed\\ttab\\rret");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Export, MetricsJsonGolden) {
  MetricsRegistry registry;
  registry.add(registry.counter("exchanges"), 7);
  registry.set(registry.gauge("live"), 2.5);
  const std::vector<double> bounds = {1.5, 2.5};
  const auto hist = registry.histogram("bytes", bounds);
  registry.observe(hist, 2.25);

  EXPECT_EQ(metrics_json(registry),
            "{\n"
            "  \"schema\": \"adam2.metrics.v1\",\n"
            "  \"metrics\": [\n"
            "    {\"name\":\"exchanges\",\"kind\":\"counter\",\"value\":7},\n"
            "    {\"name\":\"live\",\"kind\":\"gauge\",\"value\":2.5},\n"
            "    {\"name\":\"bytes\",\"kind\":\"histogram\",\"count\":1,"
            "\"sum\":2.25,\"bounds\":[1.5,2.5],\"buckets\":[0,1,0]}\n"
            "  ]\n"
            "}\n");
}

TEST(Export, MetricsJsonEmptyRegistry) {
  EXPECT_EQ(metrics_json(MetricsRegistry{}),
            "{\n  \"schema\": \"adam2.metrics.v1\",\n  \"metrics\": []\n}\n");
}

TEST(Export, ManifestJsonGolden) {
  RunManifest manifest;
  manifest.name = "unit";
  manifest.engine = "serial";
  manifest.seed = 42;
  manifest.threads = 2;
  manifest.set("nodes", std::uint64_t{64});
  // The build stamps vary per toolchain; pin them for the golden string.
  manifest.compiler = "test-cc";
  manifest.build = "test-build";

  EXPECT_EQ(manifest_json(manifest),
            "{\n"
            "  \"schema\": \"adam2.manifest.v1\",\n"
            "  \"name\": \"unit\",\n"
            "  \"engine\": \"serial\",\n"
            "  \"seed\": 42,\n"
            "  \"threads\": 2,\n"
            "  \"config\": {\n"
            "    \"nodes\": \"64\"\n"
            "  },\n"
            "  \"compiler\": \"test-cc\",\n"
            "  \"build\": \"test-build\"\n"
            "}\n");
}

TEST(Export, ManifestSetUpsertsPreservingOrder) {
  RunManifest manifest;
  manifest.set("alpha", std::uint64_t{1});
  manifest.set("beta", std::uint64_t{2});
  manifest.set("alpha", std::uint64_t{3});  // Update in place, no reorder.
  ASSERT_EQ(manifest.config.size(), 2U);
  EXPECT_EQ(manifest.config[0].first, "alpha");
  EXPECT_EQ(manifest.config[0].second, "3");
  ASSERT_NE(manifest.get("beta"), nullptr);
  EXPECT_EQ(*manifest.get("beta"), "2");
  EXPECT_EQ(manifest.get("absent"), nullptr);
}

TEST(Export, TraceJsonlGolden) {
  TraceRing ring(8);

  TraceEvent start;
  start.kind = EventKind::kEngineStart;
  start.round = 3;
  start.value_a = 64;
  ring.push(start);

  TraceEvent exchange;
  exchange.kind = EventKind::kExchange;
  exchange.round = 4;
  exchange.status = ExchangeStatus::kCompleted;
  exchange.request_copies = 1;
  exchange.response_copies = 2;
  exchange.request_corrupted = false;
  exchange.response_corrupted = true;
  exchange.a = 1;
  exchange.b = 2;
  exchange.value_a = 800;
  exchange.value_b = 412;
  ring.push(exchange);

  TraceEvent instance;
  instance.kind = EventKind::kInstanceStart;
  instance.round = 4;
  instance.a = 5;
  instance.value_a = 9;
  ring.push(instance);

  EXPECT_EQ(
      trace_jsonl(ring),
      "{\"seq\":0,\"round\":3,\"kind\":\"engine_start\",\"nodes\":64}\n"
      "{\"seq\":1,\"round\":4,\"kind\":\"exchange\",\"initiator\":1,"
      "\"target\":2,\"status\":\"completed\",\"req_copies\":1,"
      "\"resp_copies\":2,\"req_corrupt\":false,\"resp_corrupt\":true,"
      "\"req_bytes\":800,\"resp_bytes\":412}\n"
      "{\"seq\":2,\"round\":4,\"kind\":\"instance_start\",\"node\":5,"
      "\"instance\":9}\n");
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

TEST(Recorder, SchemaIsIdenticalAcrossFreshRecorders) {
  // Every recorder registers the full metric schema in its constructor, so
  // two untouched recorders export byte-identical snapshots.
  Recorder a;
  Recorder b;
  EXPECT_EQ(metrics_json(a.metrics()), metrics_json(b.metrics()));
  EXPECT_FALSE(a.metrics().metrics().empty());
  EXPECT_NE(a.metrics().find("traffic.aggregation.bytes_sent"), nullptr);
  EXPECT_NE(a.metrics().find("exchange.completed"), nullptr);
  EXPECT_NE(a.metrics().find("round.current"), nullptr);
}

TEST(Recorder, EngineStartFillsManifestEngineOnce) {
  Recorder recorder;
  recorder.engine_start("serial", 0, 64);
  recorder.engine_start("parallel", 0, 64);  // Second attach does not clobber.
  EXPECT_EQ(recorder.manifest().engine, "serial");
  ASSERT_EQ(recorder.trace().size(), 2U);
  EXPECT_EQ(recorder.trace().at(0).kind, EventKind::kEngineStart);
  EXPECT_EQ(recorder.trace().at(0).value_a, 64U);
}

TEST(Recorder, RoundEndAbsorbsTrafficAndAppendsSample) {
  Recorder recorder;
  host::TrafficStats totals;
  totals.on(host::Channel::kAggregation).add_send(800);
  totals.on(host::Channel::kOverlay).add_receive(120);
  totals.duplicated_messages = 2;
  totals.crash_restarts = 1;

  recorder.round_end(5, 60, 64, totals);

  EXPECT_DOUBLE_EQ(recorder.metrics().gauge_value("round.current"), 5.0);
  EXPECT_DOUBLE_EQ(recorder.metrics().gauge_value("round.live_nodes"), 60.0);
  EXPECT_DOUBLE_EQ(recorder.metrics().gauge_value("round.nodes_ever"), 64.0);
  EXPECT_EQ(
      recorder.metrics().counter_value("traffic.aggregation.bytes_sent"),
      800U);
  EXPECT_EQ(
      recorder.metrics().counter_value("traffic.overlay.messages_received"),
      1U);
  EXPECT_EQ(recorder.metrics().counter_value("traffic.duplicated_messages"),
            2U);
  EXPECT_EQ(recorder.metrics().counter_value("traffic.crash_restarts"), 1U);

  // The round's sample lands in the trace as one kRoundEnd event.
  ASSERT_EQ(recorder.trace().size(), 1U);
  EXPECT_EQ(recorder.trace().at(0).kind, EventKind::kRoundEnd);
  EXPECT_EQ(recorder.trace().at(0).round, 5U);
  EXPECT_EQ(recorder.trace().at(0).value_a, 60U);
  EXPECT_EQ(recorder.trace().at(0).value_b, 64U);

  // set_traffic is set-not-add: absorbing the same snapshot again must not
  // double the totals.
  recorder.set_traffic(totals);
  EXPECT_EQ(
      recorder.metrics().counter_value("traffic.aggregation.bytes_sent"),
      800U);
}

TEST(Recorder, ExchangeUpdatesMetricsAndOptionallyTraces) {
  RecorderConfig config;
  config.trace_exchanges = false;
  Recorder recorder(config);

  ExchangeOutcome outcome;
  outcome.initiator = 1;
  outcome.target = 2;
  outcome.has_target = true;
  outcome.status = ExchangeStatus::kCompleted;
  outcome.request_bytes = 800;
  outcome.response_bytes = 400;
  recorder.exchange(1, outcome);

  outcome.status = ExchangeStatus::kRequestLost;
  outcome.response_bytes = 0;
  recorder.exchange(1, outcome);

  EXPECT_EQ(recorder.metrics().counter_value("exchange.completed"), 1U);
  EXPECT_EQ(recorder.metrics().counter_value("exchange.request_lost"), 1U);
  const Metric* request_hist =
      recorder.metrics().find("exchange.request_bytes");
  ASSERT_NE(request_hist, nullptr);
  EXPECT_EQ(request_hist->count, 2U);
  const Metric* response_hist =
      recorder.metrics().find("exchange.response_bytes");
  ASSERT_NE(response_hist, nullptr);
  EXPECT_EQ(response_hist->count, 1U);  // Zero-byte legs are not observed.
  EXPECT_TRUE(recorder.trace().empty());  // Suppressed by trace_exchanges.

  // With tracing on (the default) the same call lands in the ring.
  Recorder tracing;
  tracing.exchange(1, outcome);
  ASSERT_EQ(tracing.trace().size(), 1U);
  EXPECT_EQ(tracing.trace().at(0).kind, EventKind::kExchange);
}

// ---------------------------------------------------------------------------
// atomic_write_file
// ---------------------------------------------------------------------------

TEST(AtomicWrite, WritesContentAndLeavesNoTempFile) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "adam2_obs_atomic.json";
  std::filesystem::remove(path);

  ASSERT_TRUE(atomic_write_file(path, bytes_of("{\"ok\":true}\n")));
  EXPECT_EQ(read_file(path), "{\"ok\":true}\n");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  // Overwrite replaces the previous artifact whole.
  ASSERT_TRUE(atomic_write_file(path, bytes_of("v2")));
  EXPECT_EQ(read_file(path), "v2");
  std::filesystem::remove(path);
}

TEST(AtomicWrite, CreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adam2_obs_nested";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "deep" / "metrics.json";

  ASSERT_TRUE(atomic_write_file(path, bytes_of("x")));
  EXPECT_EQ(read_file(path), "x");
  std::filesystem::remove_all(dir);
}

TEST(AtomicWrite, WriteHelpersRoundTripExports) {
  Recorder recorder;
  recorder.engine_start("serial", 0, 8);
  host::TrafficStats totals;
  totals.on(host::Channel::kAggregation).add_send(100);
  recorder.round_end(1, 8, 8, totals);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adam2_obs_helpers";
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(write_trace_jsonl(dir / "trace.jsonl", recorder.trace()));
  ASSERT_TRUE(write_metrics_json(dir / "metrics.json", recorder.metrics()));
  ASSERT_TRUE(write_manifest_json(dir / "manifest.json", recorder.manifest()));

  EXPECT_EQ(read_file(dir / "trace.jsonl"), trace_jsonl(recorder.trace()));
  EXPECT_EQ(read_file(dir / "metrics.json"),
            metrics_json(recorder.metrics()));
  EXPECT_EQ(read_file(dir / "manifest.json"),
            manifest_json(recorder.manifest()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adam2::obs
