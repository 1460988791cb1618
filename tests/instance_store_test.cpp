// core::InstanceStore correctness suite.
//
// Three layers of protection for the store of a node's live instances:
//
//  1. Pinned protocol digests. Seeded Adam2 runs (serial, sharded x8, with
//     and without a fault plan, plus a multi-value population) fold every
//     observable bit of protocol state — live membership, the agents' gossip
//     request bytes, completed estimates, traffic counters — into an FNV-1a
//     digest pinned to constants. A change of the store's layout is not a
//     protocol change and must leave them as they are; they have moved only
//     in the documented re-captures of DESIGN.md §9.3.
//
//  2. Differential fuzz. Seeded random op sequences (start / join / merge /
//     expire / lookup / restore) driven in lockstep against a reference
//     model: a std::map of owning InstanceState plus an insertion-order
//     vector. Iteration order, header fields, point values, and the encoded
//     wire bytes must match after every step.
//
//  3. Heap accounting. This binary replaces the global operator new and
//     delete, so the tests can count what the store's own calls allocate:
//     its live heap must follow the peak working set, and a fixed-lambda
//     lifecycle must stop allocating once that set has been seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "core/instance_store.hpp"
#include "rng/rng.hpp"

#include "core/multi.hpp"
#include "core/protocol.hpp"
#include "core/system.hpp"
#include "host/fault.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/cyclon.hpp"
#include "wire/messages.hpp"

// -- Heap accounting ----------------------------------------------------------
// While g_counting is on, every allocation is counted and its size added to
// g_live_bytes, and every release subtracts its size again; a header in
// front of each block keeps the size for the release. count_heap() switches
// counting on around single store calls, so gtest and the test's own
// containers stay out of the figures. The aligned forms keep their default
// definitions, which neither call nor are called by these.
//
// GCC flags free() inside the replaced operator delete as mismatched with the
// (also replaced, malloc-backed) operator new at inlined call sites; the pair
// is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  auto* block = static_cast<std::byte*>(std::malloc(kHeader + size));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof size);
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
  }
  return block + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  std::byte* block = static_cast<std::byte*>(p) - kHeader;
  if (g_counting.load(std::memory_order_relaxed)) {
    std::size_t size = 0;
    std::memcpy(&size, block, sizeof size);
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
  }
  std::free(block);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace adam2::core {
namespace {

/// Runs `call` (one store call) with heap accounting on.
template <typename Call>
void count_heap(Call&& call) {
  g_counting.store(true, std::memory_order_relaxed);
  call();
  g_counting.store(false, std::memory_order_relaxed);
}

// -- Digest helpers ----------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, double v) {
  mix(h, std::bit_cast<std::uint64_t>(v));
}

void mix_bytes(std::uint64_t& h, std::span<const std::byte> bytes) {
  mix(h, static_cast<std::uint64_t>(bytes.size()));
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
}

void mix_estimate(std::uint64_t& h, const std::optional<Estimate>& estimate) {
  if (!estimate) {
    mix(h, std::uint64_t{0});
    return;
  }
  mix(h, std::uint64_t{1});
  mix(h, estimate->instance.initiator);
  mix(h, static_cast<std::uint64_t>(estimate->instance.seq));
  mix(h, static_cast<std::uint64_t>(estimate->completed_round));
  mix(h, estimate->min_value);
  mix(h, estimate->max_value);
  mix(h, estimate->n_estimate);
  for (const stats::CdfPoint& p : estimate->points) {
    mix(h, p.t);
    mix(h, p.f);
  }
  for (const stats::CdfPoint& p : estimate->cdf.knots()) {
    mix(h, p.t);
    mix(h, p.f);
  }
  if (estimate->self_assessment) {
    mix(h, estimate->self_assessment->max_err);
    mix(h, estimate->self_assessment->avg_err);
  }
}

/// Folds the full Adam2-visible end state of a cycle engine into one u64:
/// per live node (engine id order) the attribute, instance counters, the
/// agent's *request bytes* (the exact payloads the next exchange would put
/// on the wire — point order and arithmetic included) and its estimate,
/// plus the global traffic totals.
template <typename EngineT>
std::uint64_t protocol_digest(EngineT& engine) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(engine.live_count()));
  for (host::NodeId id : engine.live_ids()) {
    auto& agent = dynamic_cast<Adam2Agent&>(engine.agent(id));
    mix(h, static_cast<std::uint64_t>(id));
    mix(h, static_cast<double>(engine.node(id).attribute));
    mix(h, static_cast<std::uint64_t>(agent.active_instance_count()));
    mix(h, static_cast<std::uint64_t>(agent.completed_instances()));
    mix(h, agent.n_estimate());
    auto ctx = engine.context_for(id);
    mix_bytes(h, agent.make_request(ctx));
    mix_estimate(h, agent.estimate());
  }
  const host::TrafficStats& traffic = engine.total_traffic();
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    mix(h, traffic.channels[c].messages_sent);
    mix(h, traffic.channels[c].bytes_sent);
  }
  mix(h, traffic.dropped_messages);
  mix(h, traffic.corrupted_messages);
  return h;
}

std::vector<stats::Value> spread_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<stats::Value>(17 * i + (i * i) % 31);
  }
  return values;
}

std::unique_ptr<host::Overlay> cyclon() {
  sim::CyclonConfig config;
  config.view_size = 8;
  config.shuffle_size = 4;
  return std::make_unique<sim::CyclonOverlay>(config);
}

Adam2Config protocol_config() {
  Adam2Config config;
  config.lambda = 12;
  config.instance_ttl = 8;
  config.verification_points = 4;
  config.restart_every_r = 6.0;  // Keep creating instances all run long.
  config.initial_n_estimate = 64.0;
  return config;
}

sim::EngineConfig engine_config(bool faults) {
  sim::EngineConfig config;
  config.seed = 0xada2;
  config.churn_rate = 0.02;
  if (faults) {
    host::FaultPlan plan;
    plan.drop_rate = 0.08;
    plan.duplicate_rate = 0.06;
    plan.corrupt_rate = 0.06;
    plan.crash_rate = 0.01;
    plan.partition_count = 2;
    plan.partition_start = 6;
    plan.partition_heal_after = 6;
    plan.seed = 0x90de;
    config.faults = plan;
  }
  return config;
}

host::AttributeSource churn_values() {
  return [](rng::Rng& rng) {
    return static_cast<stats::Value>(rng.below(1000));
  };
}

host::AgentFactory adam2_factory(const Adam2Config& config) {
  return [config](const host::AgentContext&) {
    return std::make_unique<Adam2Agent>(config);
  };
}

host::AgentFactory multi_factory(const Adam2Config& config) {
  return [config](const host::AgentContext& ctx) {
    // Deterministic per-node value set derived from the attribute.
    std::vector<stats::Value> own{ctx.attribute, ctx.attribute / 2 + 1,
                                  ctx.attribute * 2 + 3};
    return std::make_unique<MultiValueAdam2Agent>(config, std::move(own));
  };
}

template <typename EngineT>
std::uint64_t drive(EngineT& engine) {
  // Scripted starts guarantee early instances; restart_every_r keeps the
  // create/join/expire churn going for the rest of the run.
  for (std::size_t slot : {std::size_t{0}, std::size_t{5}}) {
    const host::NodeId id = engine.live_ids()[slot];
    auto ctx = engine.context_for(id);
    (void)dynamic_cast<Adam2Agent&>(engine.agent(id)).start_instance(ctx);
  }
  engine.run_rounds(40);
  return protocol_digest(engine);
}

std::uint64_t run_serial(bool faults, const host::AgentFactory& factory) {
  sim::CycleEngine engine(engine_config(faults), spread_values(64), cyclon(),
                          factory, churn_values());
  return drive(engine);
}

std::uint64_t run_parallel(bool faults, const host::AgentFactory& factory) {
  sim::CycleEngine engine(engine_config(faults), spread_values(64), cyclon(),
                          factory, churn_values(), 8);
  return drive(engine);
}

// -- Pinned digests ----------------------------------------------------------
// Re-captured when the fault plan's drop_rate became the one loss mechanism
// (the engine config no longer sets a separate loss rate), and again when
// Cyclon's maintenance began to walk the live ids instead of its hash map of
// views, which under churn is another order (DESIGN.md §9.3). Gossip payload
// order, merge arithmetic, finalisation order, and every estimate byte are
// part of the contract.

constexpr std::uint64_t kSerialGolden = 12625669041913875714ULL;
constexpr std::uint64_t kSerialFaultsGolden = 17387430566971519677ULL;
constexpr std::uint64_t kMultiValueGolden = 7167319912897878628ULL;

TEST(InstanceStoreGolden, SerialAdam2RunMatchesPinnedDigest) {
  EXPECT_EQ(run_serial(false, adam2_factory(protocol_config())),
            kSerialGolden);
}

TEST(InstanceStoreGolden, SerialAdam2RunUnderFaultsMatchesPinnedDigest) {
  EXPECT_EQ(run_serial(true, adam2_factory(protocol_config())),
            kSerialFaultsGolden);
}

TEST(InstanceStoreGolden, ParallelAdam2RunMatchesSerialDigest) {
  EXPECT_EQ(run_parallel(false, adam2_factory(protocol_config())),
            kSerialGolden);
  EXPECT_EQ(run_parallel(true, adam2_factory(protocol_config())),
            kSerialFaultsGolden);
}

TEST(InstanceStoreGolden, MultiValueRunMatchesPinnedDigest) {
  EXPECT_EQ(run_serial(false, multi_factory(protocol_config())),
            kMultiValueGolden);
}

// -- Differential fuzz: InstanceStore vs reference model ---------------------
//
// The reference model is a map of owning InstanceState plus an
// insertion-order id vector. Both sides execute the same seeded op
// sequence; after every round the full observable state must match —
// membership, iteration order, header fields, every point value bit for
// bit, and the encoded wire bytes of a message carrying all live instances.

struct ReferenceStore {
  std::map<wire::InstanceId, InstanceState> map;
  std::vector<wire::InstanceId> order;
};

constexpr double kFuzzAttribute = 500.0;
constexpr std::uint16_t kFuzzMaxTtl = 25;  // Every ttl drawn below is <= 25.

double fuzz_contribution(double t) { return kFuzzAttribute <= t ? 1.0 : 0.0; }

std::vector<double> random_thresholds(rng::Rng& rng) {
  static constexpr std::size_t kCounts[] = {4, 12, 50};
  std::vector<double> thresholds(kCounts[rng.below(3)]);
  for (double& t : thresholds) t = rng.uniform(0.0, 1000.0);
  std::sort(thresholds.begin(), thresholds.end());
  return thresholds;
}

wire::InstancePayload random_payload(rng::Rng& rng, wire::InstanceId id) {
  wire::InstancePayload p;
  p.id = id;
  p.start_round = static_cast<std::uint32_t>(rng.below(100));
  p.ttl = static_cast<std::uint16_t>(1 + rng.below(25));
  p.weight = rng.uniform();
  p.min_value = rng.uniform(0.0, 500.0);
  p.max_value = p.min_value + rng.uniform(0.0, 500.0);
  for (double t : random_thresholds(rng)) p.points.push_back({t, rng.uniform()});
  if (rng.below(2) == 0) {
    for (int i = 0; i < 4; ++i) {
      p.verification.push_back({rng.uniform(0.0, 1000.0), rng.uniform()});
    }
  }
  return p;
}

/// A peer's re-gossip of an instance both models hold: same thresholds
/// (mergeable), fresh averaged values.
wire::InstancePayload mutate_payload(const InstanceState& state,
                                     rng::Rng& rng) {
  wire::InstancePayload p = state.to_payload();
  for (stats::CdfPoint& pt : p.points) pt.f = rng.uniform();
  for (stats::CdfPoint& pt : p.verification) pt.f = rng.uniform();
  p.weight = rng.uniform();
  p.min_value = state.min_value - rng.uniform();
  p.max_value = state.max_value + rng.uniform();
  return p;
}

/// Encodes `p` and hands the zero-copy parsed view to `use` (so the store
/// side exercises the same wire path the exchange hot loop uses).
template <typename Fn>
void with_view(const wire::InstancePayload& p, Fn&& use) {
  wire::Writer scratch;
  wire::Adam2MessageBuilder builder(scratch, wire::MessageType::kAdam2Request,
                                    99);
  builder.add(p);
  const auto bytes = builder.finish();
  const auto view = wire::Adam2MessageView::parse(bytes);
  use(*view.begin());
}

void expect_equivalent(const InstanceStore& store, const ReferenceStore& ref) {
  ASSERT_EQ(store.size(), ref.order.size());
  std::size_t i = 0;
  for (const InstanceSlot& slot : store) {
    const wire::InstanceId id = ref.order[i++];
    ASSERT_TRUE(slot.id == id) << "iteration order diverged at " << (i - 1);
    const InstanceState& state = ref.map.find(id)->second;
    EXPECT_EQ(slot.start_round, state.start_round);
    EXPECT_EQ(slot.ttl, state.ttl);
    EXPECT_EQ(slot.flags, state.flags);
    EXPECT_EQ(slot.touched_epoch, state.touched_epoch);
    EXPECT_EQ(slot.weight, state.weight);
    EXPECT_EQ(slot.min_value, state.min_value);
    EXPECT_EQ(slot.max_value, state.max_value);
    ASSERT_EQ(slot.points().size(), state.points.size());
    for (std::size_t k = 0; k < state.points.size(); ++k) {
      EXPECT_EQ(slot.points()[k].t, state.points[k].t);
      EXPECT_EQ(slot.points()[k].f, state.points[k].f);
    }
    ASSERT_EQ(slot.verification().size(), state.verification.size());
    for (std::size_t k = 0; k < state.verification.size(); ++k) {
      EXPECT_EQ(slot.verification()[k].t, state.verification[k].t);
      EXPECT_EQ(slot.verification()[k].f, state.verification[k].f);
    }
  }
  // The encoded bytes of a full message must match too: slot spans and
  // owning vectors must be indistinguishable on the wire.
  wire::Writer from_slots;
  wire::Writer from_states;
  wire::Adam2MessageBuilder a(from_slots, wire::MessageType::kAdam2Request, 7);
  for (const InstanceSlot& slot : store) a.add(slot.ref());
  wire::Adam2MessageBuilder b(from_states, wire::MessageType::kAdam2Request, 7);
  for (const wire::InstanceId id : ref.order) b.add(ref.map.find(id)->second);
  const auto bytes_a = a.finish();
  const auto bytes_b = b.finish();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_TRUE(std::equal(bytes_a.begin(), bytes_a.end(), bytes_b.begin()))
      << "slot-encoded message diverged from state-encoded message";
}

void run_fuzz(std::uint64_t seed) {
  InstanceStore store;
  ReferenceStore ref;
  rng::Rng rng(seed);
  std::uint32_t next_seq = 0;
  const ContributionFn contribution = fuzz_contribution;
  const std::int64_t heap_before = g_live_bytes.load();

  for (int round = 0; round < 900; ++round) {
    // Creation ops only while empty (0 = start, 1 = join, 5 = checkpoint
    // restore — the latter lands into a *non-empty* store most of the time,
    // the coverage the warm-restart path needs).
    static constexpr std::uint64_t kCreateOps[] = {0, 1, 5};
    const std::uint64_t op = ref.order.size() >= 48  ? 3  // Cap: force expiry.
                             : ref.order.size() == 0 ? kCreateOps[rng.below(3)]
                                                     : rng.below(6);
    switch (op) {
      case 0: {  // Initiator-side start.
        const wire::InstanceId id{1, next_seq++};
        const std::vector<double> thresholds = random_thresholds(rng);
        std::vector<double> verification;
        if (rng.below(2) == 0) verification = {100.0, 300.0, 600.0, 900.0};
        const auto round_no = static_cast<std::uint32_t>(rng.below(100));
        const auto ttl = static_cast<std::uint16_t>(1 + rng.below(25));
        count_heap([&] {
          store.start(id, round_no, ttl, thresholds, verification,
                      contribution, kFuzzAttribute, kFuzzAttribute);
        });
        ref.map.emplace(id, InstanceState::start(id, round_no, ttl, thresholds,
                                                 verification,
                                                 fuzz_contribution,
                                                 kFuzzAttribute,
                                                 kFuzzAttribute));
        ref.order.push_back(id);
        break;
      }
      case 1: {  // Joiner-side creation from a foreign payload.
        const wire::InstanceId id{2 + rng.below(8), next_seq++};
        const wire::InstancePayload payload = random_payload(rng, id);
        with_view(payload, [&](const wire::InstancePayloadView& view) {
          count_heap([&] {
            store.join(view, contribution, kFuzzAttribute, kFuzzAttribute);
          });
        });
        ref.map.emplace(id, InstanceState::join(payload, fuzz_contribution,
                                                kFuzzAttribute,
                                                kFuzzAttribute));
        ref.order.push_back(id);
        break;
      }
      case 2: {  // Symmetric merge of a re-gossiped payload.
        const wire::InstanceId id = ref.order[rng.below(ref.order.size())];
        const wire::InstancePayload payload =
            mutate_payload(ref.map.find(id)->second, rng);
        with_view(payload, [&](const wire::InstancePayloadView& view) {
          InstanceSlot* slot = store.find(id);
          ASSERT_NE(slot, nullptr);
          ASSERT_TRUE(admissible(view, kFuzzMaxTtl, slot));
          slot->merge(view);
        });
        ref.map.find(id)->second.average_with(payload);
        break;
      }
      case 3: {  // Expiry.
        const wire::InstanceId id = ref.order[rng.below(ref.order.size())];
        count_heap([&] { store.erase(id); });
        ref.map.erase(id);
        std::erase(ref.order, id);
        break;
      }
      case 5: {  // Checkpoint restore into a (possibly non-empty) store.
        const wire::InstanceId id{10 + rng.below(4), next_seq++};
        InstanceState state;
        state.id = id;
        state.start_round = static_cast<std::uint32_t>(rng.below(100));
        state.ttl = static_cast<std::uint16_t>(1 + rng.below(25));
        state.flags = static_cast<std::uint8_t>(rng.below(4));
        state.weight = rng.uniform();
        state.min_value = rng.uniform(0.0, 500.0);
        state.max_value = state.min_value + rng.uniform(0.0, 500.0);
        for (double t : random_thresholds(rng)) {
          state.points.push_back({t, rng.uniform()});
        }
        if (rng.below(2) == 0) {
          for (int i = 0; i < 4; ++i) {
            state.verification.push_back(
                {rng.uniform(0.0, 1000.0), rng.uniform()});
          }
        }
        state.touched_epoch = rng.below(1000);
        count_heap([&] {
          store.restore(state.id, state.start_round, state.ttl, state.flags,
                        state.weight, state.min_value, state.max_value,
                        state.touched_epoch, state.points,
                        state.verification);
        });
        ref.map.emplace(id, state);
        ref.order.push_back(id);
        break;
      }
      default: {  // Lookup of a (probably dead) id.
        const wire::InstanceId id{
            1 + rng.below(9),
            static_cast<std::uint32_t>(rng.below(next_seq + 1))};
        EXPECT_EQ(store.find(id) != nullptr, ref.map.contains(id));
        break;
      }
    }
    expect_equivalent(store, ref);

    // The live set is capped at 48 instances of at most 50 H and 4 V
    // points each, and a series is sized to its points, so the store's heap
    // must stay within 49 such slots (in a slot vector grown by doubling)
    // — however the random op mix interleaves sizes, memory use is a
    // function of the peak working set, never of the number of lifecycles.
    constexpr std::size_t kSlots = 49;
    EXPECT_LE(g_live_bytes.load() - heap_before,
              static_cast<std::int64_t>(
                  std::bit_ceil(kSlots) * sizeof(InstanceSlot) +
                  kSlots * (50 + 4) * sizeof(stats::CdfPoint)));
  }
}

TEST(InstanceStoreFuzz, MatchesReferenceModelSeedA) { run_fuzz(0xf00d); }
TEST(InstanceStoreFuzz, MatchesReferenceModelSeedB) { run_fuzz(0xbeef); }
TEST(InstanceStoreFuzz, MatchesReferenceModelSeedC) { run_fuzz(42); }

TEST(InstanceStoreTest, FixedLambdaLifecycleReachesExactSteadyState) {
  // The production shape: instances at one lambda, FIFO expiry (TTL). After
  // the first full working set, creation and expiry reuse retired slots and
  // their series: the store allocates nothing more.
  InstanceStore store;
  std::vector<double> thresholds(50);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = static_cast<double>(i) * 20.0;
  }
  const std::vector<double> verification{100.0, 300.0, 600.0, 900.0};
  const ContributionFn contribution = fuzz_contribution;
  std::vector<wire::InstanceId> live;
  std::uint64_t warm_allocations = 0;
  for (std::uint32_t round = 0; round < 500; ++round) {
    const wire::InstanceId id{1, round};
    count_heap([&] {
      store.start(id, round, 25, thresholds, verification, contribution,
                  kFuzzAttribute, kFuzzAttribute);
    });
    live.push_back(id);
    if (live.size() > 25) {
      count_heap([&] { store.erase(live.front()); });
      live.erase(live.begin());
    }
    if (round == 100) warm_allocations = g_allocations.load();
  }
  EXPECT_EQ(g_allocations.load() - warm_allocations, 0u);
}

TEST(InstanceStoreTest, EmptySetMarkersEncodeIdenticallyFromSlotAndPayload) {
  InstanceStore store;
  const std::vector<double> thresholds{10.0, 20.0};
  InstanceSlot& slot = store.start({3, 9}, 5, 7, thresholds, {},
                                   fuzz_contribution, 1.0, 2.0);
  InstanceState state = InstanceState::start({3, 9}, 5, 7, thresholds, {},
                                             fuzz_contribution, 1.0, 2.0);
  wire::Writer a;
  wire::Writer b;
  wire::Adam2MessageBuilder ba(a, wire::MessageType::kAdam2Response, 1);
  ba.add_empty_set(slot.ref());
  wire::Adam2MessageBuilder bb(b, wire::MessageType::kAdam2Response, 1);
  bb.add_empty_set(state);
  const auto bytes_a = ba.finish();
  const auto bytes_b = bb.finish();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_TRUE(std::equal(bytes_a.begin(), bytes_a.end(), bytes_b.begin()));
}

TEST(InstanceStoreTest, ZeroInstanceIdIsAValidKey) {
  InstanceStore store;
  const std::vector<double> thresholds{1.0};
  store.start({0, 0}, 0, 1, thresholds, {}, fuzz_contribution, 0.0, 0.0);
  ASSERT_NE(store.find({0, 0}), nullptr);
  store.erase({0, 0});
  EXPECT_EQ(store.find({0, 0}), nullptr);
  EXPECT_TRUE(store.empty());
}

}  // namespace
}  // namespace adam2::core
