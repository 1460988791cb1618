// Microbenchmarks (google-benchmark) for the hot paths of the library —
// payload merging, wire round-trips, point-selection heuristics, and the
// closed-form discrete error metrics — plus an always-run acceptance harness
// for the optimised paths:
//
//   * DiscreteErrorEvaluator must be bit-identical to discrete_errors and
//     at least ~2x faster on a 20,000-node truth (the speedup is recorded in
//     BENCH_micro_core.json; only bit-mismatches fail the process, since
//     wall-clock on shared CI runners is noisy).
//   * A steady-state Adam2 gossip exchange (make_request -> handle_request ->
//     handle_response between two live agents) must perform zero heap
//     allocations, verified with a counting global operator new; so must a
//     warmed Cyclon overlay maintenance pass over 2000 nodes, inline and on
//     a 4-worker pool.
//   * The instance lifecycle (create, join, merge, expire) must not allocate
//     once its high-water marks have been seen.
//   * A freshly built Adam2Agent must cost at most 1 KB, sizeof included:
//     an idle agent holds no encode buffer, instance slot or tombstones.
//   * The zero-copy Adam2MessageView must materialize exactly what
//     Adam2Message::decode produces for builder-encoded bytes.
//
// Environment: ADAM2_BENCH_JSON=<dir> writes the acceptance metrics to
// <dir>/BENCH_micro_core.json; ADAM2_BENCH_MICRO_ACCEPT_ONLY=1 skips the
// google-benchmark suite (CI smoke runs use this). Any exit code other than
// zero means an acceptance invariant broke.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/instance.hpp"
#include "core/instance_store.hpp"
#include "core/point_selection.hpp"
#include "core/protocol.hpp"
#include "data/boinc_synth.hpp"
#include "host/agent.hpp"
#include "host/node.hpp"
#include "host/overlay.hpp"
#include "host/pool.hpp"
#include "host/view.hpp"
#include "sim/cyclon.hpp"
#include "stats/error_metrics.hpp"
#include "wire/messages.hpp"

// -- Allocation counting ----------------------------------------------------
// Counted global operator new: every successful allocation bumps the
// allocation counter and adds its requested size to the byte counter, so the
// acceptance harness can assert that warmed-up gossip exchanges are
// allocation-free and measure what an object allocates. Deltas are what
// matter; the absolute values include the benchmark library's own
// allocations.
//
// GCC flags free() inside the replaced operator delete as mismatched with the
// (also replaced, malloc-backed) operator new at inlined call sites; the pair
// is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  const std::size_t al =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size) != 0) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace adam2;

core::InstanceState make_state(std::size_t lambda) {
  std::vector<double> thresholds;
  for (std::size_t i = 0; i < lambda; ++i) {
    thresholds.push_back(static_cast<double>(i) * 10.0);
  }
  return core::InstanceState::start(
      {1, 0}, 0, 25, thresholds, {},
      [](double t) { return 300.0 <= t ? 1.0 : 0.0; }, 300.0, 300.0);
}

stats::PiecewiseLinearCdf synthetic_prev(std::size_t knots,
                                         std::uint64_t seed = 5) {
  std::vector<stats::CdfPoint> points;
  rng::Rng rng(seed);
  double f = 0.0;
  for (std::size_t i = 0; i < knots; ++i) {
    f = std::min(1.0, f + rng.uniform() * 2.0 / static_cast<double>(knots));
    points.push_back({static_cast<double>(i * 13), f});
  }
  points.front().f = 0.0;
  points.back().f = 1.0;
  return stats::PiecewiseLinearCdf{std::move(points)};
}

// -- Acceptance harness -----------------------------------------------------

/// Minimal host for driving two agents directly: everyone is live, traffic
/// recording is a no-op (the substrate, not the agent, records traffic).
class PairHostView final : public host::HostView {
 public:
  PairHostView() : ids_{0, 1} {}
  [[nodiscard]] bool is_live(host::NodeId) const override { return true; }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return id == 0 ? 100 : 900;
  }
  [[nodiscard]] host::Round round() const override { return 1; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(host::Channel, std::size_t) override {}

 private:
  std::vector<host::NodeId> ids_;
};

/// Host of `count` live nodes 0..count-1, each with its id as attribute;
/// traffic recording is a no-op.
class PopulationHostView final : public host::HostView {
 public:
  explicit PopulationHostView(std::size_t count) : ids_(count) {
    for (std::size_t i = 0; i < count; ++i) ids_[i] = i;
  }
  [[nodiscard]] bool is_live(host::NodeId id) const override {
    return id < ids_.size();
  }
  [[nodiscard]] stats::Value attribute_of(host::NodeId id) const override {
    return static_cast<stats::Value>(id);
  }
  [[nodiscard]] host::Round round() const override { return 1; }
  [[nodiscard]] std::span<const host::NodeId> live_ids() const override {
    return ids_;
  }
  void record_traffic(host::Channel, std::size_t) override {}

 private:
  std::vector<host::NodeId> ids_;
};

/// Two-node overlay: each node's only neighbour is the other one; the
/// neighbour-value cache is a fixed spread so bootstrap thresholds exist.
class PairOverlay final : public host::Overlay {
 public:
  void add_node(host::NodeId, const host::HostView&, rng::Rng&) override {}
  void remove_node(host::NodeId) override {}
  [[nodiscard]] std::optional<host::NodeId> pick_gossip_target(
      host::NodeId id, rng::Rng&) const override {
    return id == 0 ? host::NodeId{1} : host::NodeId{0};
  }
  [[nodiscard]] std::vector<host::NodeId> neighbors(
      host::NodeId id) const override {
    return {id == 0 ? host::NodeId{1} : host::NodeId{0}};
  }
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      host::NodeId, const host::HostView&) const override {
    std::vector<stats::Value> values;
    for (stats::Value v = 50; v <= 1000; v += 50) values.push_back(v);
    return values;
  }
};

bool check(bool ok, const char* what, int& failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
  return ok;
}

/// Bit-match + speedup of DiscreteErrorEvaluator vs discrete_errors on a
/// 20,000-node RAM truth (the acceptance scale from the optimisation issue).
void accept_evaluator(const bench::BenchEnv& env, int& failures) {
  constexpr std::size_t kNodes = 20000;
  rng::Rng rng(env.seed);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, kNodes, rng);
  const stats::EmpiricalCdf truth{values};
  const stats::DiscreteErrorEvaluator evaluator(truth);

  std::vector<stats::PiecewiseLinearCdf> approxes;
  for (std::uint64_t s = 0; s < 32; ++s) {
    approxes.push_back(synthetic_prev(52, 7 * s + 1));
  }

  std::size_t mismatches = 0;
  for (const auto& approx : approxes) {
    const stats::ErrorPair slow = stats::discrete_errors(truth, approx);
    const stats::ErrorPair fast = evaluator(approx);
    if (slow.max_err != fast.max_err || slow.avg_err != fast.avg_err) {
      ++mismatches;
    }
  }
  check(mismatches == 0, "evaluator bit-identical to discrete_errors",
        failures);
  bench::report_metric("evaluator_bit_mismatches",
                       static_cast<double>(mismatches));

  using clock = std::chrono::steady_clock;
  const auto time_passes = [&](auto&& fn) {
    // One warm-up pass, then best-of-3 to shrug off scheduler noise.
    fn();
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto begin = clock::now();
      fn();
      const std::chrono::duration<double> d = clock::now() - begin;
      best = std::min(best, d.count());
    }
    return best;
  };
  double sink = 0.0;
  const double serial_s = time_passes([&] {
    for (const auto& approx : approxes) {
      sink += stats::discrete_errors(truth, approx).avg_err;
    }
  });
  const double cached_s = time_passes([&] {
    for (const auto& approx : approxes) sink += evaluator(approx).avg_err;
  });
  benchmark::DoNotOptimize(sink);
  const double speedup = cached_s > 0.0 ? serial_s / cached_s : 0.0;
  std::printf("  evaluator: serial %.6fs cached %.6fs speedup %.2fx %s\n",
              serial_s, cached_s, speedup,
              speedup >= 2.0 ? "(target >= 2x met)" : "(below 2x target!)");
  bench::report_metric("evaluator_serial_s", serial_s);
  bench::report_metric("evaluator_cached_s", cached_s);
  bench::report_metric("evaluator_speedup_n20000", speedup);
}

/// Steady-state gossip between two warmed-up agents must not allocate: the
/// request/reply encode into reused Writer scratch and the decode is the
/// zero-copy view, so the only allocations happen while instances join.
void accept_zero_alloc_exchange(int& failures) {
  PairHostView view;
  PairOverlay overlay;
  rng::Rng rng_a(1);
  rng::Rng rng_b(2);
  host::AgentContext actx{view, overlay, 0, 1, 0, view.attribute_of(0), rng_a};
  host::AgentContext bctx{view, overlay, 1, 1, 0, view.attribute_of(1), rng_b};

  core::Adam2Config config;
  config.lambda = 50;
  config.instance_ttl = 60000;  // Stay mid-instance for the whole run.
  core::Adam2Agent a(config);
  core::Adam2Agent b(config);
  (void)a.start_instance(actx);
  (void)a.start_instance(actx);

  const auto exchange = [&] {
    const auto request = a.make_request(actx);
    if (!request.empty()) {
      const auto response = b.handle_request(bctx, request);
      if (!response.empty()) a.handle_response(actx, response);
    }
    const auto back_request = b.make_request(bctx);
    if (!back_request.empty()) {
      const auto back_response = a.handle_request(actx, back_request);
      if (!back_response.empty()) b.handle_response(bctx, back_response);
    }
  };
  // Warm up: b joins both instances and every scratch buffer reaches its
  // steady-state capacity.
  for (int i = 0; i < 16; ++i) exchange();

  constexpr int kSteadyIters = 1000;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteadyIters; ++i) exchange();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  char what[96];
  std::snprintf(what, sizeof what,
                "steady-state exchange allocation-free (%llu allocs / %d "
                "exchanges)",
                static_cast<unsigned long long>(allocs), kSteadyIters);
  check(allocs == 0, what, failures);
  bench::report_metric("exchange_steady_allocs", static_cast<double>(allocs));
  bench::report_metric("exchange_steady_iterations",
                       static_cast<double>(kSteadyIters));
  bench::report_metric(
      "exchange_active_instances",
      static_cast<double>(a.active_instance_count()));
}

/// Warmed Cyclon maintenance must not allocate, inline or on a 4-worker
/// pool: views are pooled fixed-stride blocks with ring value caches, the
/// walk order, its decision ring, the per-worker shuffle messages and the
/// pool's claim tables are reused scratch.
void accept_zero_alloc_maintain(int& failures) {
  constexpr std::size_t kNodes = 2000;
  constexpr int kPasses = 20;
  for (const std::size_t workers : {1, 4}) {
    PopulationHostView host(kNodes);
    sim::CyclonOverlay overlay(sim::CyclonConfig{});
    host::WorkerPool pool(workers);
    rng::Rng rng(3);
    overlay.build_initial(host.live_ids(), host, rng);
    const auto pass = [&] {
      if (workers == 1) {
        overlay.maintain(host, rng);
      } else {
        overlay.maintain(host, rng, pool);
      }
    };
    // Warm up: every value cache fills and the scratch reaches its capacity.
    for (int i = 0; i < kPasses; ++i) pass();

    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < kPasses; ++i) pass();
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;

    char what[112];
    std::snprintf(what, sizeof what,
                  "warmed Cyclon maintenance on %zu worker(s) "
                  "allocation-free (%llu allocs / %d passes)",
                  workers, static_cast<unsigned long long>(allocs), kPasses);
    check(allocs == 0, what, failures);
    bench::report_metric(workers == 1 ? "maintain_steady_allocs"
                                      : "maintain_pooled_steady_allocs",
                         static_cast<double>(allocs));
  }
}

/// The full instance lifecycle — initiator-side creation, joining off a
/// parsed wire view, the merge sweep, and TTL expiry — must be
/// allocation-free at steady state: retired slots with their series, and
/// the wire scratch, are reused once their high-water marks have been seen.
/// (This extends the warmed-up-exchange check above, which never
/// creates or expires an instance inside its window.)
void accept_zero_alloc_lifecycle(int& failures) {
  constexpr std::size_t kLambda = 50;
  constexpr std::size_t kMaxLive = 16;

  std::vector<double> thresholds(kLambda);
  for (std::size_t i = 0; i < kLambda; ++i) {
    thresholds[i] = static_cast<double>(i) * 20.0;
  }
  const std::vector<double> verification{100.0, 300.0, 600.0, 900.0};
  const core::ContributionFn contribution = [](double t) {
    return 300.0 <= t ? 1.0 : 0.0;
  };

  core::InstanceStore initiator;  // Starts instances, merges echoes back.
  core::InstanceStore joiner;     // Joins them off the parsed wire view.
  wire::Writer fwd_scratch;
  wire::Writer back_scratch;
  std::vector<wire::InstanceId> live;
  live.reserve(kMaxLive + 1);
  std::uint32_t seq = 0;

  const auto cycle = [&] {
    // Create on the initiator; ship it; join on the joiner.
    const wire::InstanceId id{1, seq++};
    core::InstanceSlot& started =
        initiator.start(id, seq, 25, thresholds, verification, contribution,
                        300.0, 300.0);
    wire::Adam2MessageBuilder fwd(fwd_scratch, wire::MessageType::kAdam2Request,
                                  1);
    fwd.add(started.ref());
    const auto fwd_view = wire::Adam2MessageView::parse(fwd.finish());
    joiner.join(*fwd_view.begin(), contribution, 700.0, 700.0);
    live.push_back(id);
    // Merge sweep: the joiner's whole state travels back and averages in.
    wire::Adam2MessageBuilder back(back_scratch,
                                   wire::MessageType::kAdam2Response, 2);
    for (const core::InstanceSlot& slot : joiner) back.add(slot.ref());
    const auto back_view = wire::Adam2MessageView::parse(back.finish());
    for (const wire::InstancePayloadView& payload : back_view) {
      core::InstanceSlot* slot = initiator.find(payload.id);
      if (slot != nullptr && core::admissible(payload, 25, slot)) {
        slot->merge(payload);
      }
    }
    // Expire the oldest instance on both sides.
    if (live.size() > kMaxLive) {
      initiator.erase(live.front());
      joiner.erase(live.front());
      live.erase(live.begin());
    }
  };

  for (int i = 0; i < 64; ++i) cycle();  // Reach every high-water mark.

  constexpr int kSteadyIters = 1000;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteadyIters; ++i) cycle();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  char what[96];
  std::snprintf(what, sizeof what,
                "create/join/merge/expire lifecycle allocation-free (%llu "
                "allocs / %d cycles)",
                static_cast<unsigned long long>(allocs), kSteadyIters);
  check(allocs == 0, what, failures);
  bench::report_metric("lifecycle_steady_allocs", static_cast<double>(allocs));
  bench::report_metric("lifecycle_steady_iterations",
                       static_cast<double>(kSteadyIters));
}

/// An idle agent holds only state it uses (DESIGN.md §7.5): the encode
/// scratch is per thread, and the instance store, tombstones and combine
/// history allocate only once they hold something.
/// What building one costs, sizeof included, is the per-node protocol
/// overhead of every simulated node before any instance reaches it.
void accept_agent_footprint(int& failures) {
  constexpr std::uint64_t kIdleAgentBudget = 1024;
  const core::Adam2Config config;
  const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto agent = std::make_unique<core::Adam2Agent>(config);
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  benchmark::DoNotOptimize(agent.get());  // Keeps the allocation observable.

  char what[96];
  std::snprintf(what, sizeof what, "idle Adam2Agent <= %llu B (%llu B)",
                static_cast<unsigned long long>(kIdleAgentBudget),
                static_cast<unsigned long long>(bytes));
  check(bytes <= kIdleAgentBudget, what, failures);
  bench::report_metric("agent_idle_bytes", static_cast<double>(bytes));
  bench::report_metric("node_record_bytes",
                       static_cast<double>(sizeof(host::Node)));
}

/// The zero-copy view of builder-encoded bytes must materialize exactly what
/// the owning decoder produces.
void accept_wire_view(int& failures) {
  wire::Adam2Message message;
  message.type = wire::MessageType::kAdam2Request;
  message.sender = 7;
  auto s = make_state(50);
  message.instances = {s.to_payload()};

  wire::Writer scratch;
  wire::Adam2MessageBuilder builder(scratch, message.type, message.sender);
  builder.add(message.instances.front());
  const auto bytes = builder.finish();

  const wire::Adam2Message owned = wire::Adam2Message::decode(bytes);
  const wire::Adam2Message viewed =
      wire::Adam2MessageView::parse(bytes).materialize();
  check(owned == message && viewed == message,
        "zero-copy view materializes identically to Adam2Message::decode",
        failures);
}

int run_acceptance(const bench::BenchEnv& env) {
  std::printf("\n## Hot-path acceptance checks\n");
  int failures = 0;
  accept_wire_view(failures);
  accept_zero_alloc_exchange(failures);
  accept_zero_alloc_lifecycle(failures);
  accept_zero_alloc_maintain(failures);
  accept_agent_footprint(failures);
  accept_evaluator(env, failures);
  bench::report_metric("acceptance_failures", static_cast<double>(failures));
  return failures == 0 ? 0 : 1;
}

// -- Microbenchmarks --------------------------------------------------------

void BM_MergeAverage(benchmark::State& state) {
  auto a = make_state(static_cast<std::size_t>(state.range(0)));
  const auto payload = a.to_payload();
  for (auto _ : state) {
    a.average_with(payload);
    benchmark::DoNotOptimize(a.weight);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_MergeAverage)->Arg(10)->Arg(50)->Arg(100);

void BM_WireRoundTrip(benchmark::State& state) {
  wire::Adam2Message message;
  message.sender = 7;
  auto s = make_state(static_cast<std::size_t>(state.range(0)));
  message.instances = {s.to_payload()};
  for (auto _ : state) {
    const auto bytes = message.encode();
    const auto decoded = wire::Adam2Message::decode(bytes);
    benchmark::DoNotOptimize(decoded.instances.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(message.encoded_size()));
}
BENCHMARK(BM_WireRoundTrip)->Arg(10)->Arg(50)->Arg(100);

void BM_WireViewRoundTrip(benchmark::State& state) {
  auto s = make_state(static_cast<std::size_t>(state.range(0)));
  const auto payload = s.to_payload();
  wire::Writer scratch;
  std::size_t encoded_size = 0;
  for (auto _ : state) {
    wire::Adam2MessageBuilder builder(scratch,
                                      wire::MessageType::kAdam2Request, 7);
    builder.add(payload);
    const auto bytes = builder.finish();
    encoded_size = bytes.size();
    const auto view = wire::Adam2MessageView::parse(bytes);
    double sum = 0.0;
    for (const auto& instance : view) {
      for (const stats::CdfPoint p : instance.points) sum += p.f;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(encoded_size));
}
BENCHMARK(BM_WireViewRoundTrip)->Arg(10)->Arg(50)->Arg(100);

/// One steady-state exchange between two warmed agents (make_request ->
/// handle_request -> handle_response) at lambda 50 with 10 verification
/// points, sharing range(0) instances: the exchange layer's per-call cost
/// without an engine around it.
void BM_SteadyExchange(benchmark::State& state) {
  PairHostView view;
  PairOverlay overlay;
  rng::Rng rng_a(1);
  rng::Rng rng_b(2);
  host::AgentContext actx{view, overlay, 0, 1, 0, view.attribute_of(0), rng_a};
  host::AgentContext bctx{view, overlay, 1, 1, 0, view.attribute_of(1), rng_b};
  core::Adam2Config config;
  config.lambda = 50;
  config.verification_points = 10;
  config.instance_ttl = 60000;  // Stay mid-instance for the whole run.
  core::Adam2Agent a(config);
  core::Adam2Agent b(config);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)a.start_instance(actx);
  }
  const auto exchange = [&] {
    const auto request = a.make_request(actx);
    const auto response = b.handle_request(bctx, request);
    a.handle_response(actx, response);
  };
  for (int i = 0; i < 16; ++i) exchange();  // b joins; scratch warms up.
  for (auto _ : state) {
    exchange();
    benchmark::ClobberMemory();
  }
  const core::InstanceSlot* slot = a.instance({0, 0});
  benchmark::DoNotOptimize(slot != nullptr ? slot->weight : 0.0);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SteadyExchange)->Arg(1)->Arg(5);

/// One warmed Cyclon maintenance pass over range(0) nodes on one worker:
/// the overlay layer's cost per shuffle, in cache (2,000 nodes) and out of
/// it (100,000 nodes: ~150 MB of views and value caches).
void BM_CyclonMaintain(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  PopulationHostView host(nodes);
  sim::CyclonOverlay overlay(sim::CyclonConfig{});
  host::WorkerPool pool(1);
  rng::Rng rng(3);
  overlay.build_initial(host.live_ids(), host, rng);
  // Warm up: the value caches fill (128 values, ~17 per shuffle).
  for (int i = 0; i < 10; ++i) overlay.maintain(host, rng, pool);
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    overlay.maintain(host, rng, pool);
    const std::chrono::duration<double> pass =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(pass.count());
    seconds += pass.count();
  }
  state.counters["ns_per_shuffle"] =
      seconds * 1e9 / static_cast<double>(state.iterations() * nodes);
}
BENCHMARK(BM_CyclonMaintain)
    ->Arg(2000)
    ->Arg(100000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_SelectHCut(benchmark::State& state) {
  const auto prev = synthetic_prev(52);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hcut(prev, 50));
  }
}
BENCHMARK(BM_SelectHCut);

void BM_SelectMinMax(benchmark::State& state) {
  const auto prev = synthetic_prev(52);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::minmax(prev, 50));
  }
}
BENCHMARK(BM_SelectMinMax);

void BM_SelectLCut(benchmark::State& state) {
  const auto prev = synthetic_prev(52);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lcut(prev, 50));
  }
}
BENCHMARK(BM_SelectLCut);

void BM_DiscreteErrors(benchmark::State& state) {
  rng::Rng rng(7);
  const auto values = data::generate_population(
      data::Attribute::kRamMb, static_cast<std::size_t>(state.range(0)), rng);
  const stats::EmpiricalCdf truth{values};
  const auto approx = synthetic_prev(52);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::discrete_errors(truth, approx));
  }
}
BENCHMARK(BM_DiscreteErrors)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DiscreteErrorEvaluator(benchmark::State& state) {
  rng::Rng rng(7);
  const auto values = data::generate_population(
      data::Attribute::kRamMb, static_cast<std::size_t>(state.range(0)), rng);
  const stats::EmpiricalCdf truth{values};
  const stats::DiscreteErrorEvaluator evaluator(truth);
  const auto approx = synthetic_prev(52);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator(approx));
  }
}
BENCHMARK(BM_DiscreteErrorEvaluator)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EmpiricalCdfBuild(benchmark::State& state) {
  rng::Rng rng(8);
  const auto values = data::generate_population(
      data::Attribute::kCpuMflops, static_cast<std::size_t>(state.range(0)),
      rng);
  for (auto _ : state) {
    auto copy = values;
    benchmark::DoNotOptimize(stats::EmpiricalCdf{std::move(copy)});
  }
}
BENCHMARK(BM_EmpiricalCdfBuild)->Arg(1000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  const adam2::bench::BenchEnv env = adam2::bench::bench_env();
  adam2::bench::open_report("micro_core", env);
  adam2::bench::print_banner(
      "Microbenchmarks and hot-path acceptance checks", env);

  const int rc = run_acceptance(env);

  const char* accept_only = std::getenv("ADAM2_BENCH_MICRO_ACCEPT_ONLY");
  if (accept_only == nullptr || *accept_only == '\0' ||
      *accept_only == '0') {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  const std::string json = adam2::bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return rc;
}
