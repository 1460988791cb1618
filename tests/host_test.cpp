// Unit tests for the shared host substrate: node registry, bootstrap
// policy, churn arithmetic, and the worker pool's claim counter, unit gate
// and exception forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/bootstrap.hpp"
#include "host/churn.hpp"
#include "host/pool.hpp"
#include "host/registry.hpp"

namespace adam2::host {
namespace {

// ----------------------------------------------------------------- registry

TEST(NodeTableTest, SpawnAssignsMonotoneIdsAndDistinctStreams) {
  NodeTable table;
  rng::Rng seed_rng(7);
  // spawn() references are invalidated by the next spawn; keep only ids.
  const NodeId a = table.spawn(1.0, 0, seed_rng).id;
  const NodeId b = table.spawn(2.0, 0, seed_rng).id;
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.live_count(), 2u);
  EXPECT_EQ(table.size(), 2u);
  // Agent and control streams must be decorrelated per node. The copies are
  // deliberate: the test probes the streams without advancing the table's.
  rng::Rng agent = table.at(a).rng;      // adam2-lint: allow(rng-copy)
  rng::Rng pick = table.at(a).pick_rng;  // adam2-lint: allow(rng-copy)
  EXPECT_NE(agent(), pick());
}

TEST(NodeTableTest, KillRemovesFromLiveAndKeepsSlot) {
  NodeTable table;
  rng::Rng seed_rng(7);
  for (int i = 0; i < 4; ++i) table.spawn(i, 0, seed_rng);
  table.kill(1);
  EXPECT_EQ(table.live_count(), 3u);
  EXPECT_FALSE(table.is_live(1));
  EXPECT_EQ(table.at(1).id, 1u);
  // Remaining live ids are exactly {0, 2, 3}.
  std::set<NodeId> live(table.live_ids().begin(), table.live_ids().end());
  EXPECT_EQ(live, (std::set<NodeId>{0, 2, 3}));
  // Spawning after a kill continues the monotone id sequence.
  EXPECT_EQ(table.spawn(9, 1, seed_rng).id, 4u);
}

TEST(NodeTableTest, KillingDeadNodeIsIdempotent) {
  NodeTable table;
  rng::Rng seed_rng(7);
  table.spawn(1, 0, seed_rng);
  table.kill(0);
  table.kill(0);
  EXPECT_EQ(table.live_count(), 0u);
}

TEST(NodeTableTest, RandomLiveThrowsWhenEmpty) {
  NodeTable table;
  rng::Rng rng(1);
  EXPECT_THROW((void)table.random_live(rng), std::runtime_error);
}

TEST(NodeTableTest, RandomLiveOnlyReturnsLiveNodes) {
  NodeTable table;
  rng::Rng seed_rng(7);
  for (int i = 0; i < 10; ++i) table.spawn(i, 0, seed_rng);
  for (NodeId id : {NodeId{2}, NodeId{5}, NodeId{7}}) table.kill(id);
  rng::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(table.is_live(table.random_live(rng)));
  }
}

TEST(NodeTableTest, RecordSurvivesOtherNodesKills) {
  NodeTable table;
  rng::Rng seed_rng(7);
  for (int i = 0; i < 5; ++i) table.spawn(i, 0, seed_rng);
  table.kill(0);
  table.kill(2);
  EXPECT_EQ(table.at(4).id, 4u);
  EXPECT_EQ(table.at(4).attribute, 4);
}

TEST(NodeTableTest, UnknownIdsThrowOrAreSkipped) {
  NodeTable table;
  rng::Rng seed_rng(7);
  for (int i = 0; i < 3; ++i) table.spawn(i, 0, seed_rng);
  EXPECT_THROW((void)table.at(3), std::out_of_range);
  EXPECT_THROW(table.kill(3), std::out_of_range);
  EXPECT_FALSE(table.is_live(3));
}

TEST(NodeTableTest, IsLiveReadsTheLivenessTable) {
  NodeTable table;
  rng::Rng seed_rng(7);
  for (int i = 0; i < 4; ++i) table.spawn(i, 0, seed_rng);
  table.kill(3);  // The last live id: its slot is the one removed.
  table.kill(1);
  EXPECT_FALSE(table.is_live(1));
  EXPECT_FALSE(table.is_live(3));
  EXPECT_TRUE(table.is_live(0));
  EXPECT_TRUE(table.is_live(2));
  EXPECT_FALSE(table.is_live(4));  // Unknown.
  EXPECT_FALSE(table.is_live(~NodeId{0}));

  // A restore: a dead record stays dead, alive ones are live once placed.
  NodeTable restored;
  restored.restore_node(0, 0, true);
  restored.restore_node(1, 0, false);
  restored.restore_node(2, 0, true);
  const std::vector<NodeId> order = {2, 0};
  restored.finish_restore(order);
  EXPECT_TRUE(restored.is_live(0));
  EXPECT_FALSE(restored.is_live(1));
  EXPECT_TRUE(restored.is_live(2));
  EXPECT_FALSE(restored.is_live(3));
  EXPECT_EQ(std::vector<NodeId>(restored.live_ids().begin(),
                                restored.live_ids().end()),
            order);
  // Killing after a restore keeps the positions consistent.
  restored.kill(2);
  EXPECT_FALSE(restored.is_live(2));
  EXPECT_EQ(std::vector<NodeId>(restored.live_ids().begin(),
                                restored.live_ids().end()),
            std::vector<NodeId>{0});
}

TEST(NodeTableTest, FinishRestoreRefusesInconsistentLiveOrders) {
  const auto restored = [] {
    NodeTable table;
    table.restore_node(0, 0, true);
    table.restore_node(1, 0, false);
    table.restore_node(2, 0, true);
    return table;
  };
  const auto refusal = [&](std::vector<NodeId> order) {
    NodeTable table = restored();
    try {
      table.finish_restore(order);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(refusal({0}), "finish_restore: live order size mismatch");
  EXPECT_EQ(refusal({0, 2, 1}), "finish_restore: live order size mismatch");
  EXPECT_EQ(refusal({0, 1}), "finish_restore: dead or unknown live id");
  EXPECT_EQ(refusal({0, 7}), "finish_restore: dead or unknown live id");
  EXPECT_EQ(refusal({2, 2}), "finish_restore: duplicate live id");
  EXPECT_EQ(refusal({2, 0}), "accepted");
}

// -------------------------------------------------------------------- churn

TEST(ChurnTest, StochasticCountIntegerPartIsExact) {
  rng::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(stochastic_count(3.0, rng), 3u);
  }
}

TEST(ChurnTest, StochasticCountFractionAveragesOut) {
  rng::Rng rng(1);
  std::size_t total = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) total += stochastic_count(0.25, rng);
  EXPECT_NEAR(static_cast<double>(total) / kTrials, 0.25, 0.02);
}

// -------------------------------------------------------------- worker pool

TEST(WorkerPoolTest, RunIndexedVisitsEveryIndexOnce) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    std::vector<int> runs(1000, 0);
    std::vector<int> worker_ok(runs.size(), 0);
    pool.run_indexed(runs.size(), [&](std::size_t i, std::size_t worker) {
      ++runs[i];
      worker_ok[i] = worker < pool.size() ? 1 : 0;
    });
    EXPECT_EQ(runs, std::vector<int>(runs.size(), 1)) << workers;
    EXPECT_EQ(worker_ok, std::vector<int>(runs.size(), 1)) << workers;
  }
}

constexpr std::uint32_t kNoSlot = 0xffffffffU;  // A unit with no target.

/// Claims unit u's slots `unit_slots[2u]` and `unit_slots[2u + 1]`.
void claim_both(std::span<const std::uint32_t> unit_slots, std::size_t u,
                WorkerPool::Claims& claims) {
  for (std::size_t k = 0; k < 2; ++k) {
    if (unit_slots[2 * u + k] != kNoSlot) claims.claim(unit_slots[2 * u + k]);
  }
}

// The ordered primitive behind the sharded cycle engine: random unit ->
// slot plans (an initiator slot per unit, a target slot for most) must run
// every unit exactly once, and every slot must see its units in ascending
// plan order. One unit in seven does its work in decide and has no apply
// step, as a Cyclon shuffle with a dead target does. Each decide also
// checks that every earlier unit of its slots is done. The per-slot logs
// are unsynchronised on purpose: the claims alone keep two units of one
// slot apart, which ThreadSanitizer checks in CI.
TEST(WorkerPoolTest, GatedUnitsRunOnceInPlanOrderPerSlot) {
  constexpr std::size_t kUnits = 400;
  constexpr std::size_t kSlots = 24;
  rng::Rng rng(0x9a7e);
  for (std::size_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    for (int plan = 0; plan < 20; ++plan) {
      std::vector<std::uint32_t> unit_slots(2 * kUnits);
      std::vector<std::vector<std::uint32_t>> expected(kSlots);
      for (std::uint32_t u = 0; u < kUnits; ++u) {
        const auto initiator = static_cast<std::uint32_t>(rng.below(kSlots));
        auto target = static_cast<std::uint32_t>(rng.below(kSlots));
        if (target == initiator || rng.below(5) == 0) {
          target = kNoSlot;  // No reachable target.
        }
        unit_slots[2 * u] = initiator;
        unit_slots[2 * u + 1] = target;
        expected[initiator].push_back(u);
        if (target != kNoSlot) expected[target].push_back(u);
      }

      std::vector<int> runs(kUnits, 0);
      std::vector<std::vector<std::uint32_t>> seen(kSlots);
      const auto log = [&](std::size_t u) {
        ++runs[u];
        for (std::size_t k = 0; k < 2; ++k) {
          const std::uint32_t s = unit_slots[2 * u + k];
          if (s != kNoSlot) seen[s].push_back(static_cast<std::uint32_t>(u));
        }
      };
      int stale_decisions = 0;  // The walk's alone.
      pool.run_ordered(
          kUnits, kSlots,
          [&](std::size_t u, WorkerPool::Claims& claims) {
            claim_both(unit_slots, u, claims);
            for (std::size_t k = 0; k < 2; ++k) {
              const std::uint32_t s = unit_slots[2 * u + k];
              if (s == kNoSlot) continue;
              const auto earlier = std::ranges::lower_bound(expected[s], u);
              if (seen[s].size() !=
                  static_cast<std::size_t>(earlier - expected[s].begin())) {
                ++stale_decisions;
              }
            }
            if (u % 7 != 3) return true;
            log(u);
            return false;
          },
          [&](std::size_t u, std::size_t worker) {
            EXPECT_LT(worker, pool.size());
            log(u);
          });
      EXPECT_EQ(runs, std::vector<int>(kUnits, 1))
          << workers << " workers, plan " << plan;
      EXPECT_EQ(seen, expected) << workers << " workers, plan " << plan;
      EXPECT_EQ(stale_decisions, 0) << workers << " workers, plan " << plan;
    }
  }
}

// Decisions reach their applies through a ring of pending_limit() entries:
// the walk never runs more than that far ahead of the applied units, even
// when no claim holds it back. The logs are unsynchronised on purpose; the
// pool's ordering alone makes them safe, which ThreadSanitizer checks in CI.
TEST(WorkerPoolTest, DecisionsFitARingOfPendingLimitEntries) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    const std::size_t units = 3 * WorkerPool::kMaxPending + 5;
    std::vector<std::size_t> ring(std::min(units, pool.pending_limit()));
    std::vector<int> applied(units, 0);
    int overrun = 0;  // The walk's alone.
    int mismatched = 0;
    std::vector<int> mismatched_by_worker(pool.size(), 0);
    pool.run_ordered(
        units, 1,
        [&](std::size_t u, WorkerPool::Claims&) {
          if (u >= ring.size() && applied[u - ring.size()] == 0) ++overrun;
          ring[u % ring.size()] = u;
          return true;
        },
        [&](std::size_t u, std::size_t worker) {
          if (ring[u % ring.size()] != u) ++mismatched_by_worker[worker];
          applied[u] = 1;
        });
    for (int count : mismatched_by_worker) mismatched += count;
    EXPECT_EQ(overrun, 0) << workers << " workers";
    EXPECT_EQ(mismatched, 0) << workers << " workers";
    EXPECT_EQ(applied, std::vector<int>(units, 1)) << workers << " workers";
  }
}

/// `call`'s std::runtime_error message, or "no exception".
std::string message_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::runtime_error& error) {
    return std::string(error.what());
  }
  return std::string("no exception");
}

/// Units chained through shared slots: unit u claims slots u % 8 and
/// (u + 1) % 8, so every unit waits on the one before it.
std::vector<std::uint32_t> chained_slots(std::size_t units) {
  std::vector<std::uint32_t> unit_slots(2 * units);
  for (std::uint32_t u = 0; u < units; ++u) {
    unit_slots[2 * u] = u % 8;
    unit_slots[2 * u + 1] = (u + 1) % 8;
  }
  return unit_slots;
}

// The one-worker look-ahead: ahead(u) runs once per unit, in unit order,
// right before decide(u - kLookAhead) (the first kLookAhead units before
// decide(0)), once every earlier unit has been decided and applied. The
// results equal those of the same call without it.
TEST(WorkerPoolTest, AheadRunsOncePerUnitBeforeItsDecisionOnOneWorker) {
  constexpr std::size_t kAhead = WorkerPool::kLookAhead;
  for (const std::size_t units : {std::size_t{0}, std::size_t{3}, kAhead,
                                  kAhead + 1, 5 * kAhead + 3}) {
    WorkerPool pool(1);
    std::vector<std::string> events;
    std::size_t decided = 0;  // Units decided so far.
    std::size_t done = 0;     // Units decided and, if they have one, applied.
    int misplaced = 0;        // An ahead that did not see exactly that.
    std::uint64_t hash = 0;
    pool.run_ordered(
        units, 1,
        [&](std::size_t u, WorkerPool::Claims&) {
          events.push_back("d" + std::to_string(u));
          hash = hash * 31 + u;
          decided = u + 1;
          const bool has_apply = u % 5 != 2;  // Some units have none.
          if (!has_apply) done = u + 1;
          return has_apply;
        },
        [&](std::size_t u, std::size_t) {
          hash = hash * 37 + u;
          done = u + 1;
        },
        [&](std::size_t u) {
          events.push_back("a" + std::to_string(u));
          const std::size_t next = u < kAhead ? 0 : u - kAhead;
          if (decided != next || done != next) ++misplaced;
        });
    std::vector<std::string> expected;
    for (std::size_t u = 0; u < std::min(units, kAhead); ++u) {
      expected.push_back("a" + std::to_string(u));
    }
    for (std::size_t u = 0; u < units; ++u) {
      if (u + kAhead < units) expected.push_back("a" + std::to_string(u + kAhead));
      expected.push_back("d" + std::to_string(u));
    }
    EXPECT_EQ(events, expected) << units << " units";
    EXPECT_EQ(misplaced, 0) << units << " units";

    std::uint64_t plain = 0;
    pool.run_ordered(
        units, 1,
        [&](std::size_t u, WorkerPool::Claims&) {
          plain = plain * 31 + u;
          return u % 5 != 2;
        },
        [&](std::size_t u, std::size_t) { plain = plain * 37 + u; });
    EXPECT_EQ(hash, plain) << units << " units";
  }
}

// With threads, ahead would read state that an apply on another worker may
// be writing, so the pool never calls it; the units still run as in order.
TEST(WorkerPoolTest, ThreadedPoolNeverCallsAhead) {
  constexpr std::size_t kUnits = 400;
  constexpr std::size_t kSlots = 8;
  const std::vector<std::uint32_t> unit_slots = chained_slots(kUnits);
  for (std::size_t workers : {2u, 8u}) {
    WorkerPool pool(workers);
    std::size_t ahead_calls = 0;  // Would race if ahead ran on a worker.
    std::vector<std::uint64_t> slot_hash(kSlots, 0);
    pool.run_ordered(
        kUnits, kSlots,
        [&](std::size_t u, WorkerPool::Claims& claims) {
          claim_both(unit_slots, u, claims);
          return true;
        },
        [&](std::size_t u, std::size_t) {
          for (std::size_t k = 0; k < 2; ++k) {
            std::uint64_t& h = slot_hash[unit_slots[2 * u + k]];
            h = h * 31 + u;
          }
        },
        [&](std::size_t) { ++ahead_calls; });
    EXPECT_EQ(ahead_calls, 0u) << workers << " workers";

    std::vector<std::uint64_t> in_order(kSlots, 0);
    for (std::size_t u = 0; u < kUnits; ++u) {
      for (std::size_t k = 0; k < 2; ++k) {
        std::uint64_t& h = in_order[unit_slots[2 * u + k]];
        h = h * 31 + u;
      }
    }
    EXPECT_EQ(slot_hash, in_order) << workers << " workers";
  }
}

TEST(WorkerPoolTest, TaskExceptionReachesCaller) {
  // Once unit 3's apply throws, every later unit waits on it, so a walk
  // that did not give up would hang the call instead of failing it.
  constexpr std::size_t kUnits = 200;
  constexpr std::size_t kSlots = 8;
  const std::vector<std::uint32_t> unit_slots = chained_slots(kUnits);
  const auto claim = [&](std::size_t u, WorkerPool::Claims& claims) {
    claim_both(unit_slots, u, claims);
    return true;
  };
  const auto throw_at = [](std::size_t bad) {
    return [bad](std::size_t i, std::size_t) {
      if (i == bad) throw std::runtime_error("task " + std::to_string(i));
    };
  };
  for (std::size_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    EXPECT_EQ(message_of([&] { pool.run_indexed(kUnits, throw_at(150)); }),
              "task 150")
        << workers << " workers";
    EXPECT_EQ(message_of([&] {
                pool.run_ordered(kUnits, kSlots, claim, throw_at(3));
              }),
              "task 3")
        << workers << " workers";
    // Every task throwing still yields one exception on the caller.
    EXPECT_THROW(pool.run_indexed(kUnits,
                                  [](std::size_t, std::size_t) {
                                    throw std::logic_error("every task");
                                  }),
                 std::logic_error)
        << workers << " workers";

    // The same pool then completes normal calls.
    std::vector<int> runs(kUnits, 0);
    pool.run_indexed(kUnits, [&](std::size_t i, std::size_t) { ++runs[i]; });
    pool.run_ordered(kUnits, kSlots, claim,
                     [&](std::size_t u, std::size_t) { ++runs[u]; });
    EXPECT_EQ(runs, std::vector<int>(kUnits, 2)) << workers << " workers";
  }
}

TEST(WorkerPoolTest, DecideExceptionFinishesTheDecidedUnits) {
  // The walk throws at unit 100: the units it decided before are applied,
  // none after, and the caller gets the walk's exception.
  constexpr std::size_t kUnits = 200;
  constexpr std::size_t kSlots = 8;
  const std::vector<std::uint32_t> unit_slots = chained_slots(kUnits);
  for (std::size_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    std::vector<int> runs(kUnits, 0);
    const auto apply = [&](std::size_t u, std::size_t) { ++runs[u]; };
    EXPECT_EQ(message_of([&] {
                pool.run_ordered(
                    kUnits, kSlots,
                    [&](std::size_t u, WorkerPool::Claims& claims) {
                      if (u == 100) throw std::runtime_error("decide 100");
                      claim_both(unit_slots, u, claims);
                      return true;
                    },
                    apply);
              }),
              "decide 100")
        << workers << " workers";
    std::vector<int> expected(kUnits, 0);
    std::fill_n(expected.begin(), 100, 1);
    EXPECT_EQ(runs, expected) << workers << " workers";

    // A claim beyond the slot count fails the call the same way.
    EXPECT_THROW(pool.run_ordered(
                     kUnits, kSlots,
                     [&](std::size_t u, WorkerPool::Claims& claims) {
                       claims.claim(static_cast<std::uint32_t>(u));
                       return true;
                     },
                     apply),
                 std::out_of_range)
        << workers << " workers";

    // The same pool then completes a normal call.
    std::ranges::fill(runs, 0);
    pool.run_ordered(
        kUnits, kSlots,
        [&](std::size_t u, WorkerPool::Claims& claims) {
          claim_both(unit_slots, u, claims);
          return true;
        },
        apply);
    EXPECT_EQ(runs, std::vector<int>(kUnits, 1)) << workers << " workers";
  }
}

// --------------------------------------------------------------- bootstrap

/// Overlay whose gossip targets are a fixed list, used to steer the
/// bootstrap retry loop onto dead contacts.
class FixedTargetOverlay final : public Overlay {
 public:
  explicit FixedTargetOverlay(std::vector<NodeId> targets)
      : targets_(std::move(targets)) {}

  void add_node(NodeId, const HostView&, rng::Rng&) override {}
  void remove_node(NodeId) override {}
  [[nodiscard]] std::optional<NodeId> pick_gossip_target(
      NodeId, rng::Rng& rng) const override {
    if (targets_.empty()) return std::nullopt;
    return targets_[rng.below(targets_.size())];
  }
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId) const override {
    return targets_;
  }
  [[nodiscard]] std::vector<stats::Value> known_attribute_values(
      NodeId, const HostView&) const override {
    return {};
  }

 private:
  std::vector<NodeId> targets_;
};

/// HostView over a bare NodeTable, as the engines implement it.
class TableHost final : public HostView {
 public:
  TableHost(NodeTable& table, TrafficStats& totals)
      : table_(table), totals_(totals) {}

  [[nodiscard]] bool is_live(NodeId id) const override {
    return table_.is_live(id);
  }
  [[nodiscard]] stats::Value attribute_of(NodeId id) const override {
    return table_.attribute_of(id);
  }
  [[nodiscard]] Round round() const override { return 0; }
  [[nodiscard]] std::span<const NodeId> live_ids() const override {
    return table_.live_ids();
  }
  void record_traffic(Channel channel, std::size_t bytes) override {
    totals_.record_message(channel, bytes);
  }

 private:
  NodeTable& table_;
  TrafficStats& totals_;
};

/// Agent that always wants a bootstrap and shares state when it has any.
class BootstrappingAgent final : public NodeAgent {
 public:
  explicit BootstrappingAgent(bool has_state) : has_state_(has_state) {}

  [[nodiscard]] bool bootstrapped() const { return bootstrapped_; }

  std::span<const std::byte> make_request(AgentContext&) override { return {}; }
  std::span<const std::byte> handle_request(AgentContext&,
                                            std::span<const std::byte>) override {
    return {};
  }
  std::vector<std::byte> make_bootstrap_request(AgentContext&) override {
    return {std::byte{1}};
  }
  std::vector<std::byte> handle_bootstrap_request(
      AgentContext&, std::span<const std::byte>) override {
    if (!has_state_) return {};
    return {std::byte{2}, std::byte{3}};
  }
  bool handle_bootstrap_response(AgentContext&,
                                 std::span<const std::byte>) override {
    bootstrapped_ = true;
    return true;
  }

 private:
  bool has_state_;
  bool bootstrapped_ = false;
};

TEST(BootstrapTest, AllContactsDeadCountsEveryAttempt) {
  NodeTable table;
  TrafficStats totals;
  TableHost host(table, totals);
  rng::Rng seed_rng(5);
  std::vector<NodeId> contacts;
  for (int i = 0; i < 4; ++i) {
    Node& contact = table.spawn(i, 0, seed_rng);
    contact.agent = std::make_unique<BootstrappingAgent>(true);
    contacts.push_back(contact.id);
    table.kill(contact.id);
  }
  Node& joiner = table.spawn(9, 1, seed_rng);
  joiner.agent = std::make_unique<BootstrappingAgent>(false);
  FixedTargetOverlay overlay(contacts);

  bootstrap_joiner(joiner, table, overlay, host, 1, totals);

  const auto& agent = dynamic_cast<BootstrappingAgent&>(*joiner.agent);
  EXPECT_FALSE(agent.bootstrapped());
  // One failed contact per retry in the totals; no bootstrap bytes ever
  // moved.
  EXPECT_EQ(totals.failed_contacts, 4u);
  EXPECT_EQ(totals.on(Channel::kBootstrap).messages_sent, 0u);
}

TEST(BootstrapTest, LiveContactTransfersStateAndStopsRetrying) {
  NodeTable table;
  TrafficStats totals;
  TableHost host(table, totals);
  rng::Rng seed_rng(5);
  table.reserve(2);
  const NodeId contact = table.spawn(1, 0, seed_rng).id;
  table.at(contact).agent = std::make_unique<BootstrappingAgent>(true);
  Node& joiner = table.spawn(9, 1, seed_rng);
  joiner.agent = std::make_unique<BootstrappingAgent>(false);
  FixedTargetOverlay overlay({contact});

  bootstrap_joiner(joiner, table, overlay, host, 1, totals);

  const auto& agent = dynamic_cast<BootstrappingAgent&>(*joiner.agent);
  EXPECT_TRUE(agent.bootstrapped());
  // Request plus response, both on the bootstrap channel.
  EXPECT_EQ(totals.on(Channel::kBootstrap).messages_sent, 2u);
  EXPECT_EQ(totals.on(Channel::kBootstrap).bytes_sent, 3u);
  EXPECT_EQ(totals.failed_contacts, 0u);
}

TEST(BootstrapTest, EmptyHandedContactsAreRetriedWithoutFailedContact) {
  NodeTable table;
  TrafficStats totals;
  TableHost host(table, totals);
  rng::Rng seed_rng(5);
  table.reserve(2);
  const NodeId contact = table.spawn(1, 0, seed_rng).id;
  table.at(contact).agent =
      std::make_unique<BootstrappingAgent>(/*has_state=*/false);
  Node& joiner = table.spawn(9, 1, seed_rng);
  joiner.agent = std::make_unique<BootstrappingAgent>(false);
  FixedTargetOverlay overlay({contact});

  bootstrap_joiner(joiner, table, overlay, host, 1, totals);

  const auto& agent = dynamic_cast<BootstrappingAgent&>(*joiner.agent);
  EXPECT_FALSE(agent.bootstrapped());
  // The contact was reachable (no failed contact) but had nothing to share:
  // one request per attempt, never a response.
  EXPECT_EQ(totals.failed_contacts, 0u);
  EXPECT_EQ(totals.on(Channel::kBootstrap).messages_sent,
            static_cast<std::uint64_t>(kBootstrapAttempts));
}

}  // namespace
}  // namespace adam2::host
