#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "stats/error_metrics.hpp"

namespace adam2::core {
namespace {

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<stats::Value>(i + 1);
  }
  return values;
}

SystemConfig small_system(std::uint64_t seed = 1) {
  SystemConfig config;
  config.engine.seed = seed;
  config.protocol.lambda = 10;
  config.protocol.instance_ttl = 30;
  config.overlay = OverlayKind::kStaticRandom;
  config.overlay_degree = 8;
  return config;
}

// ------------------------------------------------------ basic convergence

TEST(ProtocolTest, FractionsConvergeToExactValuesAtPoints) {
  // Values 1..200: for any threshold t the true fraction is floor(t)/200.
  SystemConfig config = small_system();
  config.protocol.instance_ttl = 60;
  Adam2System system(config, iota_values(200));
  const auto id = system.start_instance(host::NodeId{0});
  system.run_rounds(61);

  for (host::NodeId node : system.engine().live_ids()) {
    const auto& estimate = system.agent_of(node).estimate();
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(estimate->instance, id);
    for (const stats::CdfPoint& p : estimate->points) {
      const double truth = std::floor(p.t) / 200.0;
      EXPECT_NEAR(p.f, truth, 1e-7) << "at t=" << p.t;
    }
  }
}

TEST(ProtocolTest, ConvergenceIsExponentiallyFast) {
  // §VII-A: from round ~10 the error at interpolation points decreases at an
  // almost perfectly exponential rate.
  SystemConfig config = small_system(2);
  config.protocol.instance_ttl = 45;
  Adam2System system(config, iota_values(300));
  const stats::EmpiricalCdf truth{iota_values(300)};
  const auto id = system.start_instance();

  std::vector<double> errors;
  for (int round = 0; round < 40; ++round) {
    system.run_rounds(1);
    const auto e = evaluate_instance_points(system.engine(), id, truth);
    errors.push_back(e.avg_err);
  }
  // Error after 40 rounds is many orders of magnitude below round 10.
  EXPECT_LT(errors[39], errors[9] * 1e-3);
  EXPECT_LT(errors[39], 1e-4);
}

TEST(ProtocolTest, AllPeersConvergeToNearlyIdenticalEstimates) {
  // §VII-A: cross-peer standard deviation below 1e-5.
  SystemConfig config = small_system(3);
  config.protocol.instance_ttl = 60;
  Adam2System system(config, iota_values(400));
  const stats::EmpiricalCdf truth{iota_values(400)};
  system.run_instance();
  const auto errors = evaluate_estimates(system.engine(), truth);
  EXPECT_EQ(errors.peers, 400u);
  EXPECT_LT(errors.stddev_avg, 1e-5);
}

TEST(ProtocolTest, SystemSizeEstimateIsAccurate) {
  for (std::size_t n : {50u, 200u, 1000u}) {
    SystemConfig config = small_system(4);
    config.protocol.instance_ttl = 60;
    Adam2System system(config, iota_values(n));
    system.run_instance();
    for (host::NodeId node : system.engine().live_ids()) {
      const auto& estimate = system.agent_of(node).estimate();
      ASSERT_TRUE(estimate.has_value());
      EXPECT_NEAR(estimate->n_estimate, static_cast<double>(n),
                  static_cast<double>(n) * 1e-4);
    }
  }
}

TEST(ProtocolTest, GlobalExtremesPropagateToAllPeers) {
  std::vector<stats::Value> values = iota_values(300);
  values[17] = -5000;
  values[42] = 123456;
  Adam2System system(small_system(5), values);
  system.run_instance();
  for (host::NodeId node : system.engine().live_ids()) {
    const auto& estimate = system.agent_of(node).estimate();
    ASSERT_TRUE(estimate.has_value());
    EXPECT_DOUBLE_EQ(estimate->min_value, -5000.0);
    EXPECT_DOUBLE_EQ(estimate->max_value, 123456.0);
  }
}

TEST(ProtocolTest, EstimatedCdfApproximatesTruth) {
  Adam2System system(small_system(6), iota_values(500));
  const stats::EmpiricalCdf truth{iota_values(500)};
  for (int i = 0; i < 2; ++i) system.run_instance();
  const auto errors = evaluate_estimates(system.engine(), truth);
  // Uniform integer CDF is easy: both metrics should be small with 10 points.
  EXPECT_LT(errors.max_err, 0.15);
  EXPECT_LT(errors.avg_err, 0.05);
}

// ----------------------------------------------------------- TTL handling

TEST(ProtocolTest, InstanceTerminatesAfterTtlRounds) {
  Adam2System system(small_system(7), iota_values(100));
  const auto id = system.start_instance(host::NodeId{0});
  auto& initiator = system.agent_of(0);
  EXPECT_EQ(initiator.active_instance_count(), 1u);

  system.run_rounds(system.config().protocol.instance_ttl);
  EXPECT_NE(initiator.instance(id), nullptr);  // Last gossip round done.
  system.run_rounds(1);
  EXPECT_EQ(initiator.instance(id), nullptr);  // Finalised.
  EXPECT_TRUE(initiator.estimate().has_value());
  EXPECT_EQ(initiator.completed_instances(), 1u);
}

TEST(ProtocolTest, JoinersAdoptRemainingTtl) {
  Adam2System system(small_system(8), iota_values(100));
  system.start_instance(host::NodeId{0});
  system.run_rounds(system.config().protocol.instance_ttl + 1u);
  // Every peer finalised in the same round despite joining late.
  std::size_t with_estimate = 0;
  for (host::NodeId node : system.engine().live_ids()) {
    with_estimate += system.agent_of(node).estimate().has_value() ? 1u : 0u;
    EXPECT_EQ(system.agent_of(node).active_instance_count(), 0u);
  }
  EXPECT_EQ(with_estimate, 100u);
}

// ------------------------------------------------- concurrent instances

TEST(ProtocolTest, ConcurrentInstancesStayIsolated) {
  Adam2System system(small_system(9), iota_values(200));
  const auto id1 = system.start_instance(host::NodeId{0});
  system.run_rounds(5);
  const auto id2 = system.start_instance(host::NodeId{1});
  EXPECT_NE(id1, id2);
  system.run_rounds(10);

  // Both instances are running on (nearly) all nodes simultaneously.
  std::size_t both = 0;
  for (host::NodeId node : system.engine().live_ids()) {
    const auto& agent = system.agent_of(node);
    if (agent.instance(id1) != nullptr && agent.instance(id2) != nullptr) {
      ++both;
    }
  }
  EXPECT_GT(both, 150u);

  // Let both finish; the newer instance's result wins.
  system.run_rounds(30);
  const auto& estimate = system.agent_of(0).estimate();
  ASSERT_TRUE(estimate.has_value());
  EXPECT_EQ(estimate->instance, id2);
}

TEST(ProtocolTest, InstanceIdsAreUniquePerInitiator) {
  Adam2System system(small_system(10), iota_values(50));
  const auto a = system.start_instance(host::NodeId{3});
  const auto b = system.start_instance(host::NodeId{3});
  EXPECT_EQ(a.initiator, 3u);
  EXPECT_EQ(b.initiator, 3u);
  EXPECT_NE(a.seq, b.seq);
}

// --------------------------------------------------------- join policies

double instance_mass(Adam2System& system, wire::InstanceId id,
                     std::size_t point_index) {
  double sum = 0.0;
  for (host::NodeId node : system.engine().live_ids()) {
    const InstanceSlot* state = system.agent_of(node).instance(id);
    if (state != nullptr) sum += state->points()[point_index].f;
  }
  return sum;
}

TEST(ProtocolTest, MassConservingJoinKeepsTotalsExact) {
  // With values 1..100 and threshold at 50.5 the full mass is 50 once all
  // peers joined; mid-epidemic the mass equals the number of joined peers
  // whose value is <= threshold. Weight mass must stay exactly 1.
  SystemConfig config = small_system(11);
  config.protocol.join_policy = JoinPolicy::kMassConserving;
  Adam2System system(config, iota_values(100));
  const auto id = system.start_instance(host::NodeId{0});

  for (int round = 0; round < 20; ++round) {
    system.run_rounds(1);
    double weight_mass = 0.0;
    double joined_below = 0.0;
    for (host::NodeId node : system.engine().live_ids()) {
      const InstanceSlot* state = system.agent_of(node).instance(id);
      if (state == nullptr) continue;
      weight_mass += state->weight;
      if (static_cast<double>(system.engine().node(node).attribute) <=
          state->points()[0].t) {
        joined_below += 1.0;
      }
    }
    EXPECT_NEAR(weight_mass, 1.0, 1e-9);
    EXPECT_NEAR(instance_mass(system, id, 0), joined_below, 1e-9);
  }
}

TEST(ProtocolTest, PaperLiteralJoinBiasesTheEstimate) {
  // DESIGN.md §1: the literal Figure-1 join rule creates mass; the final
  // estimate is visibly biased while the conserving rule is exact.
  auto run = [](JoinPolicy policy) {
    SystemConfig config = small_system(12);
    config.protocol.join_policy = policy;
    config.protocol.instance_ttl = 80;
    Adam2System system(config, iota_values(64));
    system.run_instance(host::NodeId{0});
    const auto& est = system.agent_of(0).estimate();
    double worst = 0.0;
    for (const stats::CdfPoint& p : est->points) {
      worst = std::max(worst, std::abs(p.f - std::floor(p.t) / 64.0));
    }
    return worst;
  };
  const double conserving = run(JoinPolicy::kMassConserving);
  const double literal = run(JoinPolicy::kPaperLiteral);
  EXPECT_LT(conserving, 1e-8);
  EXPECT_GT(literal, 1e-3);
  EXPECT_GT(literal, conserving * 100.0);
}

// ------------------------------------------------------------ eligibility

TEST(ProtocolTest, LateJoinersIgnoreOldInstances) {
  SystemConfig config = small_system(13);
  config.engine.churn_rate = 0.02;
  Adam2System system(config, iota_values(200),
                     [](rng::Rng& rng) {
                       return static_cast<stats::Value>(rng.below(200) + 1);
                     });
  const auto id = system.start_instance(host::NodeId{0});
  system.run_rounds(15);
  for (host::NodeId node : system.engine().live_ids()) {
    const host::Node& n = system.engine().node(node);
    if (n.birth_round > 0) {
      EXPECT_EQ(system.agent_of(node).instance(id), nullptr)
          << "node born in round " << n.birth_round
          << " joined an instance from round 0";
    }
  }
}

// ----------------------------------------------------- probabilistic mode

TEST(ProtocolTest, ProbabilisticStartsMatchExpectedFrequency) {
  // With Ps = 1/(Np*R), a system of N nodes creates one instance per R
  // rounds on average (§IV).
  SystemConfig config = small_system(14);
  config.protocol.restart_every_r = 10.0;
  config.protocol.initial_n_estimate = 300.0;
  config.protocol.instance_ttl = 5;  // Short-lived to keep the run light.
  Adam2System system(config, iota_values(300));
  std::size_t started = 0;
  // Count completed+active instance creations through agent introspection:
  // run 200 rounds, then sum sequence numbers (each start bumps one).
  system.run_rounds(200);
  for (host::NodeId node : system.engine().live_ids()) {
    started += system.agent_of(node).completed_instances();
  }
  // Each completed instance is counted once per participant (~N times);
  // creations happen ~200/R = 20 times, each reaching ~300 peers.
  const double per_node = static_cast<double>(started) / 300.0;
  EXPECT_GT(per_node, 8.0);
  EXPECT_LT(per_node, 40.0);
}

// ------------------------------------------------------------- bootstrap

TEST(ProtocolTest, ChurnedInNodesInheritEstimates) {
  SystemConfig config = small_system(15);
  Adam2System system(config, iota_values(150), [](rng::Rng& rng) {
    return static_cast<stats::Value>(rng.below(150) + 1);
  });
  system.run_instance();

  // Trigger manual churn after the instance completed.
  system.engine().churn_nodes(15);
  std::size_t inherited = 0;
  for (host::NodeId node : system.engine().live_ids()) {
    if (node >= 150) {
      const auto& est = system.agent_of(node).estimate();
      if (est && est->inherited) ++inherited;
      if (est) {
        EXPECT_GT(est->n_estimate, 0.0);
      }
    }
  }
  EXPECT_GT(inherited, 10u);
}

// ----------------------------------------------------------- refinement

TEST(ProtocolTest, SecondInstanceRefinesThresholds) {
  SystemConfig config = small_system(17);
  config.protocol.heuristic = SelectionHeuristic::kHCut;
  Adam2System system(config, iota_values(400));
  const stats::EmpiricalCdf truth{iota_values(400)};

  system.run_instance();
  const auto first = evaluate_estimates(system.engine(), truth);
  system.run_instance();
  const auto second = evaluate_estimates(system.engine(), truth);
  // Refinement should not make things dramatically worse on a uniform CDF
  // (it is already near optimal after one instance).
  EXPECT_LT(second.avg_err, first.avg_err * 2.0 + 0.01);
}

TEST(ProtocolTest, RefinementImprovesSteppedCdf) {
  // On a step-heavy distribution MinMax refinement with the neighbour-based
  // bootstrap must reduce Errm across instances (§VII-B/C; with a *uniform*
  // bootstrap the paper's own Fig. 5 shows RAM improving only slowly).
  rng::Rng data_rng(99);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 2000, data_rng);
  SystemConfig config = small_system(18);
  config.protocol.lambda = 30;
  config.protocol.heuristic = SelectionHeuristic::kMinMax;
  config.protocol.bootstrap = BootstrapPoints::kNeighbourBased;
  config.overlay = OverlayKind::kCyclon;
  config.overlay_degree = 20;
  Adam2System system(config, values);
  const stats::EmpiricalCdf truth{values};

  system.run_instance();
  const auto first = evaluate_estimates(system.engine(), truth);
  for (int i = 0; i < 3; ++i) system.run_instance();
  const auto later = evaluate_estimates(system.engine(), truth);
  EXPECT_LT(later.max_err, first.max_err * 1.05);
  EXPECT_LT(later.max_err, 0.12);
}

// ---------------------------------------------------------- verification

TEST(ProtocolTest, SelfAssessmentTracksTrueError) {
  SystemConfig config = small_system(19);
  config.protocol.verification_points = 30;
  config.protocol.verification_mode = VerificationMode::kUniform;
  rng::Rng data_rng(5);
  const auto values =
      data::generate_population(data::Attribute::kCpuMflops, 2000, data_rng);
  Adam2System system(config, values);
  const stats::EmpiricalCdf truth{values};
  for (int i = 0; i < 2; ++i) system.run_instance();

  const host::NodeId node = system.engine().live_ids().front();
  const auto& est = system.agent_of(node).estimate();
  ASSERT_TRUE(est.has_value());
  ASSERT_TRUE(est->self_assessment.has_value());
  const auto actual = stats::discrete_errors(truth, est->cdf);
  // EstErra within a factor ~3 of the true Erra (paper: ~10% accuracy with
  // many verification points; we only require the right magnitude here).
  EXPECT_GT(est->self_assessment->avg_err, actual.avg_err / 4.0);
  EXPECT_LT(est->self_assessment->avg_err, actual.avg_err * 4.0 + 1e-4);
}

TEST(ProtocolTest, AdaptiveTuningGrowsLambdaWhenInaccurate) {
  SystemConfig config = small_system(20);
  config.protocol.lambda = 10;
  config.protocol.verification_points = 20;
  AdaptiveTuning tuning;
  tuning.target_avg_error = 1e-6;  // Unreachably strict: lambda must grow.
  config.protocol.adaptive = tuning;

  rng::Rng data_rng(6);
  const auto values =
      data::generate_population(data::Attribute::kRamMb, 1000, data_rng);
  Adam2System system(config, values);
  const host::NodeId node = system.engine().live_ids().front();
  const std::size_t before = system.agent_of(node).current_lambda();
  system.run_instance();
  const std::size_t after = system.agent_of(node).current_lambda();
  EXPECT_GT(after, before);
}

TEST(ProtocolTest, AdaptiveTuningShrinksLambdaWhenOverAccurate) {
  SystemConfig config = small_system(21);
  config.protocol.lambda = 50;
  config.protocol.verification_points = 20;
  AdaptiveTuning tuning;
  tuning.target_avg_error = 0.5;  // Trivially loose: lambda should shrink.
  config.protocol.adaptive = tuning;

  Adam2System system(config, iota_values(500));
  const host::NodeId node = system.engine().live_ids().front();
  const std::size_t before = system.agent_of(node).current_lambda();
  system.run_instance();
  EXPECT_LT(system.agent_of(node).current_lambda(), before);
}

// ------------------------------------------------------ failure injection

TEST(ProtocolTest, SurvivesInitiatorDeath) {
  Adam2System system(small_system(22), iota_values(200));
  const auto id = system.start_instance(host::NodeId{0});
  system.run_rounds(5);
  system.engine().kill_node(0);
  system.run_rounds(system.config().protocol.instance_ttl);

  // The instance still completes everywhere; the weight mass (1.0 at the
  // initiator) may be partly lost, so N can be overestimated, but the
  // fractions stay usable.
  std::size_t with_estimate = 0;
  for (host::NodeId node : system.engine().live_ids()) {
    const auto& est = system.agent_of(node).estimate();
    if (est && est->instance == id) ++with_estimate;
  }
  EXPECT_GT(with_estimate, 190u);
  (void)id;
}

TEST(ProtocolTest, ToleratesMessageLoss) {
  SystemConfig config = small_system(23);
  config.engine.faults.drop_rate = 0.1;
  config.protocol.instance_ttl = 40;
  Adam2System system(config, iota_values(300));
  const stats::EmpiricalCdf truth{iota_values(300)};
  system.run_instance();
  const auto errors = evaluate_estimates(system.engine(), truth);
  // Loss perturbs the averages but the estimate stays in the right ballpark.
  EXPECT_LT(errors.avg_err, 0.1);
}

TEST(ProtocolTest, ResilientToModerateChurn) {
  // §VII-G: at the paper's typical churn (0.1%/round) accuracy remains high.
  SystemConfig config = small_system(26);
  config.engine.churn_rate = 0.001;
  rng::Rng data_rng(7);
  const auto values =
      data::generate_population(data::Attribute::kCpuMflops, 2000, data_rng);
  Adam2System system(config, values,
                     [](rng::Rng& rng) {
                       return data::sample_attribute(
                           data::Attribute::kCpuMflops, rng);
                     });
  for (int i = 0; i < 2; ++i) system.run_instance();
  const auto truth = system.truth();
  EvaluationOptions options;
  options.missing_counts_as_one = false;
  const auto errors = evaluate_estimates(system.engine(), truth, options);
  EXPECT_LT(errors.avg_err, 0.05);
  EXPECT_GT(errors.peers, 1500u);
}

// ------------------------------------------------------------- evaluation

TEST(EvaluationTest, MissingEstimatesCountAsMaximumError) {
  Adam2System system(small_system(25), iota_values(100));
  const stats::EmpiricalCdf truth{iota_values(100)};
  // No instance has run: every peer is missing.
  const auto errors = evaluate_estimates(system.engine(), truth);
  EXPECT_EQ(errors.peers, 100u);
  EXPECT_EQ(errors.missing, 100u);
  EXPECT_DOUBLE_EQ(errors.max_err, 1.0);
  EXPECT_DOUBLE_EQ(errors.avg_err, 1.0);
}

TEST(EvaluationTest, PeerSamplingEvaluatesSubset) {
  Adam2System system(small_system(26), iota_values(500));
  const stats::EmpiricalCdf truth{iota_values(500)};
  system.run_instance();
  EvaluationOptions options;
  options.peer_sample = 50;
  const auto errors = evaluate_estimates(system.engine(), truth, options);
  EXPECT_EQ(errors.peers, 50u);
}

TEST(EvaluationTest, InstancePointErrorsBeforeSpreadAreOne) {
  Adam2System system(small_system(27), iota_values(100));
  const stats::EmpiricalCdf truth{iota_values(100)};
  const auto id = system.start_instance(host::NodeId{0});
  // Before any round, only the initiator has the instance.
  const auto errors = evaluate_instance_points(system.engine(), id, truth);
  EXPECT_EQ(errors.missing, 99u);
  EXPECT_DOUBLE_EQ(errors.max_err, 1.0);
}

}  // namespace
}  // namespace adam2::core

namespace adam2::core {
namespace {

TEST(ProtocolTest, DynamicAttributesAreReEvaluatedPerInstance) {
  // §VII-F: a node evaluates its attribute value only when it creates or
  // joins an instance, so a change between instances shows up in the next
  // estimate.
  SystemConfig config = small_system(30);
  Adam2System system(config, iota_values(200));
  system.run_instance();
  const double before = system.agent_of(0).estimate()->cdf(1000.0);
  EXPECT_NEAR(before, 1.0, 1e-6);  // All values are <= 200.

  for (host::NodeId id : system.engine().live_ids()) {
    system.engine().set_attribute(
        id, system.engine().node(id).attribute + 10000);
  }
  system.run_instance();
  const auto& est = *system.agent_of(0).estimate();
  EXPECT_NEAR(est.cdf(1000.0), 0.0, 1e-6);  // Everything moved past 10000.
  EXPECT_DOUBLE_EQ(est.min_value, 10001.0);
}

TEST(ProtocolTest, MidInstanceAttributeChangeDoesNotDistortRunningAverage) {
  // The node runs the instance to completion with its join-time
  // contribution irrespective of later changes (§VII-F).
  SystemConfig config = small_system(31);
  config.protocol.instance_ttl = 40;
  Adam2System system(config, iota_values(100));
  system.start_instance(host::NodeId{0});
  // Let the instance reach everyone first: peers contribute the value they
  // hold when they *join* (nodes joining after a change use the new value).
  system.run_rounds(15);
  for (host::NodeId id : system.engine().live_ids()) {
    system.engine().set_attribute(id, 999999);
  }
  system.run_rounds(26);
  const auto& est = *system.agent_of(0).estimate();
  // The estimate reflects the values at instance start, not the new ones.
  for (const stats::CdfPoint& p : est.points) {
    EXPECT_NEAR(p.f, std::floor(p.t) / 100.0, 1e-6) << "at t=" << p.t;
  }
}

}  // namespace
}  // namespace adam2::core

namespace adam2::core {
namespace {

TEST(EvaluationTest, ObservationDoesNotPerturbTheProtocol) {
  // Evaluating with peer sampling between rounds must leave the simulation
  // bit-identical to an unobserved run (heisenberg-free monitoring).
  auto run = [](bool observe) {
    SystemConfig config = small_system(33);
    Adam2System system(config, iota_values(300));
    const stats::EmpiricalCdf truth{iota_values(300)};
    system.start_instance(host::NodeId{0});
    EvaluationOptions options;
    options.peer_sample = 20;
    for (int round = 0; round < 31; ++round) {
      system.run_rounds(1);
      if (observe) {
        (void)evaluate_estimates(system.engine(), truth, options);
      }
    }
    std::vector<double> fingerprint;
    for (host::NodeId id : system.engine().live_ids()) {
      const auto& est = system.agent_of(id).estimate();
      if (est) {
        for (const stats::CdfPoint& p : est->points) {
          fingerprint.push_back(p.f);
        }
      }
    }
    return fingerprint;
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------- wire payload ordering

TEST(ProtocolTest, RequestPayloadsFollowJoinOrderNotBucketOrder) {
  // Regression for the adam2_lint `unordered-iter` fix: the wire payload
  // sequence must be a function of protocol history (join/start order),
  // never of how the store lays out or looks up its instances. One node
  // joins instances started by many distinct initiators, in an order that
  // follows neither their ids nor any sort of them, and its own gossip
  // request must still list them in exact arrival order.
  SystemConfig config = small_system();
  config.protocol.instance_ttl = 50;
  Adam2System system(config, iota_values(32));
  auto& engine = system.engine();
  const host::NodeId joiner = 31;

  std::vector<wire::InstanceId> arrival;
  for (host::NodeId initiator : {5, 17, 3, 29, 11, 23, 7, 13, 2, 19, 28, 9}) {
    auto ictx = engine.context_for(initiator);
    auto& agent = system.agent_of(initiator);
    arrival.push_back(agent.start_instance(ictx));
    const auto request = agent.make_request(ictx);
    auto jctx = engine.context_for(joiner);
    (void)system.agent_of(joiner).handle_request(jctx, request);
  }

  auto jctx = engine.context_for(joiner);
  const auto request = system.agent_of(joiner).make_request(jctx);
  const wire::Adam2Message decoded = wire::Adam2Message::decode(request);
  ASSERT_EQ(decoded.instances.size(), arrival.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    EXPECT_EQ(decoded.instances[i].id, arrival[i]) << "payload " << i;
  }
}

TEST(ProtocolTest, PayloadOrderSurvivesMidLifeFinalisation) {
  // Finalising an instance from the middle of the active set must not
  // perturb the relative order of the survivors.
  SystemConfig config = small_system();
  config.protocol.instance_ttl = 6;
  Adam2System system(config, iota_values(32));
  auto& engine = system.engine();
  const host::NodeId node = 0;

  auto& agent = system.agent_of(node);
  const auto first = [&] {
    auto ctx = engine.context_for(node);
    return agent.start_instance(ctx);
  }();
  system.run_rounds(3);  // `first` burns 3 of its 6 TTL rounds.
  const auto second = [&] {
    auto ctx = engine.context_for(node);
    return agent.start_instance(ctx);
  }();
  const auto third = [&] {
    auto ctx = engine.context_for(node);
    return agent.start_instance(ctx);
  }();
  system.run_rounds(4);  // `first` finalises; second/third stay active.
  ASSERT_EQ(agent.instance(first), nullptr);
  ASSERT_NE(agent.instance(second), nullptr);
  ASSERT_NE(agent.instance(third), nullptr);

  auto late_ctx = engine.context_for(node);
  const auto late = agent.start_instance(late_ctx);
  const auto request = agent.make_request(late_ctx);
  const wire::Adam2Message decoded = wire::Adam2Message::decode(request);

  std::vector<wire::InstanceId> ids;
  for (const auto& payload : decoded.instances) ids.push_back(payload.id);
  const std::vector<wire::InstanceId> expected = {second, third, late};
  EXPECT_EQ(ids, expected);
}

// ------------------------------------ per-thread encode scratch, tombstones
//
// These drive agents by hand through the engine's contexts: no rounds run,
// so every state change below is one the test made.

std::vector<std::byte> copy_of(std::span<const std::byte> bytes) {
  return {bytes.begin(), bytes.end()};
}

std::vector<std::byte> saved_state(const Adam2Agent& agent) {
  wire::Writer out;
  EXPECT_TRUE(agent.save_state(out));
  return out.take();
}

/// Starts an instance on `agent` and returns the request that carries it,
/// copied out of the thread's scratch.
std::vector<std::byte> start_and_capture(Adam2Agent& agent,
                                         host::AgentContext& ctx) {
  (void)agent.start_instance(ctx);
  return copy_of(agent.make_request(ctx));
}

/// Two round starts finalise every instance of ttl 1.
void finalise_all(Adam2Agent& agent, host::AgentContext& ctx) {
  agent.on_round_start(ctx);
  agent.on_round_start(ctx);
  ASSERT_EQ(agent.active_instance_count(), 0u);
}

SystemConfig short_lived_system() {
  SystemConfig config = small_system();
  config.protocol.instance_ttl = 1;
  return config;
}

TEST(TombstoneRingTest, HoldsTheNewestIdsOldestFirst) {
  TombstoneRing ring;
  EXPECT_EQ(ring.size(), 0u);
  const auto id = [](std::uint32_t seq) { return wire::InstanceId{7, seq}; };
  const auto held = [&ring] {
    std::vector<std::uint32_t> seqs;
    ring.for_each_oldest_first(
        [&seqs](wire::InstanceId i) { seqs.push_back(i.seq); });
    return seqs;
  };
  for (std::uint32_t seq = 0; seq < 3; ++seq) ring.insert(id(seq));
  EXPECT_EQ(held(), (std::vector<std::uint32_t>{0, 1, 2}));

  const std::uint32_t total = TombstoneRing::kCapacity + 2;
  for (std::uint32_t seq = 3; seq < total; ++seq) ring.insert(id(seq));
  EXPECT_EQ(ring.size(), TombstoneRing::kCapacity);
  EXPECT_FALSE(ring.contains(id(0)));
  EXPECT_FALSE(ring.contains(id(1)));
  EXPECT_TRUE(ring.contains(id(2)));
  EXPECT_TRUE(ring.contains(id(total - 1)));
  const std::vector<std::uint32_t> seqs = held();
  ASSERT_EQ(seqs.size(), TombstoneRing::kCapacity);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 2);

  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.contains(id(2)));
}

TEST(ProtocolScratchTest, ReplyDoesNotOverwriteTheRequestItAnswers) {
  // Both agents encode into this thread's scratch, the request into one
  // buffer and the reply into the other.
  Adam2System system(small_system(), iota_values(16));
  auto& engine = system.engine();
  auto actx = engine.context_for(0);
  auto bctx = engine.context_for(1);
  auto& a = system.agent_of(0);
  auto& b = system.agent_of(1);
  (void)a.start_instance(actx);

  const std::span<const std::byte> request = a.make_request(actx);
  ASSERT_FALSE(request.empty());
  const std::vector<std::byte> before = copy_of(request);
  const std::span<const std::byte> reply = b.handle_request(bctx, request);
  ASSERT_FALSE(reply.empty());  // b joined and replies with its values.

  EXPECT_EQ(copy_of(request), before);
  const bool disjoint = reply.data() + reply.size() <= request.data() ||
                        request.data() + request.size() <= reply.data();
  EXPECT_TRUE(disjoint);
}

TEST(ProtocolTest, EmptyRequestOnAFreshThreadGetsAnEmptyReply) {
  // A corrupted frame can be cut to no bytes, and a thread that has never
  // replied holds an empty reply scratch: both data() pointers may then be
  // null, which is not aliasing. The undecodable request is dropped.
  Adam2System system(small_system(), iota_values(16));
  auto ctx = system.engine().context_for(0);
  auto& agent = system.agent_of(0);
  (void)agent.start_instance(ctx);
  bool replied = true;
  std::thread fresh(
      [&] { replied = !agent.handle_request(ctx, {}).empty(); });
  fresh.join();
  EXPECT_FALSE(replied);
}

TEST(ProtocolTombstoneTest, FinalisedInstanceStaysRefusedFor128Instances) {
  Adam2System system(short_lived_system(), iota_values(16));
  auto ctx = system.engine().context_for(0);
  auto& agent = system.agent_of(0);

  const std::vector<std::byte> straggler = start_and_capture(agent, ctx);
  finalise_all(agent, ctx);
  EXPECT_TRUE(agent.handle_request(ctx, straggler).empty());
  EXPECT_EQ(agent.active_instance_count(), 0u);

  // 127 newer tombstones: the straggler's is still among the 128 held.
  for (std::size_t i = 0; i + 1 < TombstoneRing::kCapacity; ++i) {
    (void)agent.start_instance(ctx);
  }
  finalise_all(agent, ctx);
  EXPECT_TRUE(agent.handle_request(ctx, straggler).empty());
  EXPECT_EQ(agent.active_instance_count(), 0u);

  // The 128th newer one overwrites it, and the payload joins again.
  (void)agent.start_instance(ctx);
  finalise_all(agent, ctx);
  EXPECT_FALSE(agent.handle_request(ctx, straggler).empty());
  EXPECT_EQ(agent.active_instance_count(), 1u);
}

TEST(ProtocolTombstoneTest, WrappedRingSurvivesSaveAndRestore) {
  const SystemConfig config = short_lived_system();
  Adam2System system(config, iota_values(16));
  auto ctx = system.engine().context_for(0);
  auto& agent = system.agent_of(0);

  // 130 instances: the ring wraps, holding seqs 2..129 oldest first.
  std::vector<std::vector<std::byte>> requests;
  for (int i = 0; i < 130; ++i) {
    requests.push_back(start_and_capture(agent, ctx));
    finalise_all(agent, ctx);
  }
  const std::vector<std::byte> saved = saved_state(agent);

  Adam2Agent restored(config.protocol);
  wire::Reader in(saved);
  ASSERT_TRUE(restored.restore_state(in));
  EXPECT_EQ(saved_state(restored), saved);

  // Both evict the same oldest tombstone on the next finalisation.
  for (Adam2Agent* a : {&agent, &restored}) {
    (void)a->start_instance(ctx);
    finalise_all(*a, ctx);
  }
  EXPECT_EQ(saved_state(restored), saved_state(agent));

  // Seq 2 was just evicted; seq 3 (now the oldest) and seq 129 are held.
  for (Adam2Agent* a : {&agent, &restored}) {
    EXPECT_TRUE(a->handle_request(ctx, requests[3]).empty());
    EXPECT_TRUE(a->handle_request(ctx, requests[129]).empty());
    EXPECT_EQ(a->active_instance_count(), 0u);
    EXPECT_FALSE(a->handle_request(ctx, requests[2]).empty());
    EXPECT_EQ(a->active_instance_count(), 1u);
  }
}

TEST(ProtocolTombstoneTest, RestoreRefusesATombstoneOfALiveInstance) {
  // eligible() skips the ring for a live slot, which is sound only if no id
  // is both live and a tombstone; a restored state must not break that.
  const SystemConfig config = small_system();
  Adam2System system(config, iota_values(16));
  auto ctx = system.engine().context_for(0);
  auto& agent = system.agent_of(0);
  const wire::InstanceId live = agent.start_instance(ctx);
  const std::vector<std::byte> saved = saved_state(agent);

  // The state ends with the tombstone count (0 here) and 28 bytes of
  // counters; splice one tombstone in between.
  constexpr std::size_t kCounters = 8 + 4 + 8 + 8;
  ASSERT_GE(saved.size(), kCounters + 4);
  const std::span<const std::byte> bytes(saved);
  const auto with_tombstone = [&](wire::InstanceId id) {
    wire::Writer out;
    out.bytes(bytes.first(bytes.size() - kCounters - 4));
    out.length(1);
    out.u64(id.initiator);
    out.u32(id.seq);
    out.bytes(bytes.last(kCounters));
    return out.take();
  };

  const std::vector<std::byte> other =
      with_tombstone(wire::InstanceId{live.initiator, live.seq + 1});
  Adam2Agent accepted(config.protocol);
  wire::Reader other_in(other);
  EXPECT_TRUE(accepted.restore_state(other_in));

  const std::vector<std::byte> forged = with_tombstone(live);
  Adam2Agent refused(config.protocol);
  wire::Reader forged_in(forged);
  EXPECT_FALSE(refused.restore_state(forged_in));
}

TEST(ProtocolTombstoneTest, CombineHistorySurvivesSaveAndRestore) {
  SystemConfig config = short_lived_system();
  config.protocol.combine_last_instances = 3;
  Adam2System system(config, iota_values(16));
  auto ctx = system.engine().context_for(0);
  auto& agent = system.agent_of(0);
  for (int i = 0; i < 5; ++i) {
    (void)agent.start_instance(ctx);
    finalise_all(agent, ctx);
  }
  ASSERT_EQ(agent.completed_instances(), 5u);
  const std::vector<std::byte> saved = saved_state(agent);

  Adam2Agent restored(config.protocol);
  wire::Reader in(saved);
  ASSERT_TRUE(restored.restore_state(in));
  EXPECT_EQ(saved_state(restored), saved);

  // The restored window combines exactly as the original's does.
  for (Adam2Agent* a : {&agent, &restored}) {
    (void)a->start_instance(ctx);
    finalise_all(*a, ctx);
  }
  EXPECT_EQ(saved_state(restored), saved_state(agent));
}

}  // namespace
}  // namespace adam2::core
