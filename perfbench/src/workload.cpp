#include "workload.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "core/evaluation.hpp"
#include "data/boinc_synth.hpp"
#include "host/snapshot.hpp"
#include "probe.hpp"
#include "rng/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
/// Warm-up rounds of each set-up: lets the peer-sampling caches mix before
/// the first instance, as the figure benches do.
constexpr std::size_t kWarmupRounds = 5;
/// Peers sampled by each correctness check.
constexpr std::size_t kCheckedPeers = 1000;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;

  // Substrate-bound: at N=10^5 registry lookups and overlay maintenance
  // take most of a round.
  WorkloadSpec scale;
  scale.name = "scale_1e5";
  scale.nodes = 100000;
  scale.attribute = data::Attribute::kRamMb;
  scale.probe_rounds = {1, 12, 23};
  scale.max_errm = 0.2;
  scale.max_erra = 0.01;
  scale.n_ratio_min = 0.99;
  scale.n_ratio_max = 1.01;
  all.push_back(scale);

  // The same inputs on the sharded engine. Its digest must equal
  // scale_1e5's; what it does not gain is the serial phases.
  WorkloadSpec sharded = scale;
  sharded.name = "scale_1e5_t4";
  sharded.threads = 4;
  sharded.digest_peer = "scale_1e5";
  all.push_back(sharded);

  // Protocol-bound: several instances overlap, so exchanges carry several
  // payloads and maintenance is a small share of a round.
  //
  // Instances start on a fixed stagger rather than by the peers' own coin
  // flips (Adam2Config::restart_every_r): self-selection made the number of
  // overlapping instances, and with it every cost, vary by a factor of
  // three from seed to seed.
  WorkloadSpec continuous;
  continuous.name = "continuous_5k";
  continuous.nodes = 5000;
  continuous.attribute = data::Attribute::kCpuMflops;
  continuous.start_every = 4;
  continuous.epoch_rounds = 52;
  continuous.check_every = 52;
  continuous.verification_points = 10;
  continuous.probe_rounds = {27, 39, 51};
  continuous.max_errm = 0.1;
  continuous.max_erra = 0.03;
  all.push_back(continuous);

  // The registry and overlay write path (~200 replacements per round) and
  // the Conduit fault pipeline.
  //
  // Under drop, duplication and churn the averaging loses and gains mass,
  // so the size estimate wanders (0.29-1.40 of N over 30 seeds); its band
  // only catches a broken estimate.
  WorkloadSpec churn;
  churn.name = "churn_faults_20k";
  churn.nodes = 20000;
  churn.attribute = data::Attribute::kRamMb;
  churn.churn_rate = 0.01;
  churn.faults.drop_rate = 0.05;
  churn.faults.duplicate_rate = 0.02;
  churn.faults.crash_rate = 0.001;
  churn.epoch_rounds = 78;
  churn.probe_rounds = {1, 12, 23, 27, 38, 49, 53, 64, 75};
  churn.max_errm = 0.75;
  churn.max_erra = 0.03;
  churn.n_ratio_min = 0.1;
  churn.n_ratio_max = 3.0;
  all.push_back(churn);
  return all;
}

core::SystemConfig system_config(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t workers) {
  core::SystemConfig config;
  config.engine.seed = seed;
  config.engine.churn_rate = spec.churn_rate;
  config.engine.faults = spec.faults;
  config.engine.faults.seed = seed * kGolden ^ 0xfa171ULL;
  config.protocol.lambda = 50;
  config.protocol.instance_ttl = 25;
  config.protocol.heuristic = core::SelectionHeuristic::kMinMax;
  config.protocol.bootstrap = core::BootstrapPoints::kNeighbourBased;
  config.protocol.verification_points = spec.verification_points;
  config.overlay = core::OverlayKind::kCyclon;
  config.overlay_degree = 20;
  config.engine_threads = workers > 1 ? workers : 0;
  return config;
}

std::size_t workers_for(const WorkloadSpec& spec) {
  const std::size_t hardware = std::max(1U, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(spec.threads, hardware));
}

std::string digest_path(const std::string& dir, const std::string& workload,
                        std::uint64_t seed, std::size_t nodes) {
  return dir + "/digest-" + workload + "-s" + std::to_string(seed) + "-n" +
         std::to_string(nodes) + ".txt";
}

std::optional<std::uint64_t> read_digest(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t digest = 0;
  if (!(in >> std::hex >> digest)) return std::nullopt;
  return digest;
}

/// Evaluates the peers' completed estimates and checks them: Errm/Erra
/// under the workload's tolerance, the median N estimate within its band of
/// the live N, and every sampled estimate monotone with fractions in [0,1].
/// Counts evaluated and missing peers into `result`.
bool check_estimates(core::Adam2System& system, const WorkloadSpec& spec,
                     wire::Round born_by, const std::string& sabotage,
                     RunResult& result) {
  sim::CycleEngine& engine = system.engine();
  core::EvaluationOptions options;
  options.peer_sample = kCheckedPeers;
  options.born_by = born_by;
  options.missing_counts_as_one = false;
  const core::PopulationErrors errors =
      core::evaluate_estimates(engine, system.truth(), options);
  result.attempted += errors.peers + errors.missing;
  result.failed += errors.missing;

  rng::Rng sampler(0x5a3b1eULL ^ (engine.round() + 1) * kGolden);
  const auto live = engine.live_ids();
  std::vector<double> n_estimates;
  std::size_t bad_shape = 0;
  for (std::size_t idx : sampler.sample_indices(
           live.size(), std::min(kCheckedPeers, live.size()))) {
    const auto& estimate = system.agent_of(live[idx]).estimate();
    if (!estimate) continue;
    bool ok = estimate->cdf.is_monotone();
    for (const stats::CdfPoint& p : estimate->cdf.knots()) {
      ok = ok && p.f >= 0.0 && p.f <= 1.0;
    }
    for (const stats::CdfPoint& p : estimate->points) {
      ok = ok && p.f >= 0.0 && p.f <= 1.0;
    }
    if (!ok || sabotage == "monotone") ++bad_shape;
    n_estimates.push_back(estimate->n_estimate);
  }
  const double n_ratio =
      median(n_estimates) / static_cast<double>(engine.live_count());

  const double max_errm = sabotage == "errm" ? -1.0 : spec.max_errm;
  const double max_erra = sabotage == "erra" ? -1.0 : spec.max_erra;
  const double n_max = sabotage == "n_estimate" ? -1.0 : spec.n_ratio_max;
  const bool ok = errors.peers > 0 && errors.max_err <= max_errm &&
                  errors.avg_err <= max_erra && n_ratio >= spec.n_ratio_min &&
                  n_ratio <= n_max && bad_shape == 0;
  std::printf(
      "# check round=%u Errm=%.4f (max %.3f) Erra=%.5f (max %.4f) "
      "N_est/N=%.4f (in [%.2f, %.2f]) peers=%zu missing=%zu "
      "bad_shape=%zu: %s\n",
      engine.round(), errors.max_err, max_errm, errors.avg_err, max_erra,
      n_ratio, spec.n_ratio_min, n_max, errors.peers + errors.missing,
      errors.missing, bad_shape, ok ? "ok" : "FAILED");
  return ok;
}

/// Checks the state digest against what other runs of this build recorded
/// for the same seed and size: the untraced run of this workload, and the
/// digest peer (scale_1e5_t4 must reproduce scale_1e5). An untraced run
/// records its own digest. A comparison with no record prints that it was
/// not made.
bool check_digest(const RunOptions& options, std::uint64_t digest) {
  const WorkloadSpec& spec = options.spec;
  std::printf("# state_digest 0x%016" PRIx64 "\n", digest);
  if (options.state_dir.empty()) return true;
  bool ok = true;
  const auto compare = [&](const std::string& workload) {
    const auto recorded = read_digest(
        digest_path(options.state_dir, workload, options.seed, spec.nodes));
    if (!recorded) {
      std::printf("# digest vs %s: no record, not checked\n", workload.c_str());
      return;
    }
    const bool same = *recorded == digest;
    std::printf("# digest vs %s: 0x%016" PRIx64 " %s\n", workload.c_str(),
                *recorded, same ? "match" : "MISMATCH");
    ok = ok && same;
  };
  if (!spec.digest_peer.empty()) compare(spec.digest_peer);
  if (options.trace) {
    compare(spec.name);
  } else {
    std::ofstream out(
        digest_path(options.state_dir, spec.name, options.seed, spec.nodes),
        std::ios::trunc);
    out << std::hex << digest << "\n";
  }
  return ok;
}

struct Ledger {
  host::TrafficStats traffic;
  double node_rounds = 0.0;
};

host::TrafficStats minus(const host::TrafficStats& a,
                         const host::TrafficStats& b) {
  host::TrafficStats d;
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    d.channels[c].messages_sent =
        a.channels[c].messages_sent - b.channels[c].messages_sent;
    d.channels[c].bytes_sent = a.channels[c].bytes_sent - b.channels[c].bytes_sent;
  }
  d.failed_contacts = a.failed_contacts - b.failed_contacts;
  d.dropped_messages = a.dropped_messages - b.dropped_messages;
  d.duplicated_messages = a.duplicated_messages - b.duplicated_messages;
  d.crash_restarts = a.crash_restarts - b.crash_restarts;
  return d;
}

void record_ledger(const Ledger& ledger, LayerTrace& trace) {
  const host::TrafficStats& t = ledger.traffic;
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const std::string channel =
        host::channel_name(static_cast<host::Channel>(c));
    trace.set_exact("ledger." + channel + "_messages",
                    static_cast<double>(t.channels[c].messages_sent), "count");
    trace.set_exact("ledger." + channel + "_bytes",
                    static_cast<double>(t.channels[c].bytes_sent), "B");
  }
  trace.set_exact("ledger.failed_contacts",
                  static_cast<double>(t.failed_contacts), "count");
  trace.set_exact("ledger.dropped", static_cast<double>(t.dropped_messages),
                  "count");
  trace.set_exact("ledger.duplicated",
                  static_cast<double>(t.duplicated_messages), "count");
  trace.set_exact("ledger.crash_restarts",
                  static_cast<double>(t.crash_restarts), "count");
  // Ledger ratios: legs the Conduit delivered, and initiations that found
  // their target dead, over the first epoch.
  const double legs = static_cast<double>(
      t.on(host::Channel::kAggregation).messages_sent);
  trace.set_exact("conduit.delivered_frac",
                  legs > 0.0 ? 1.0 - static_cast<double>(t.dropped_messages) /
                                         legs
                             : 1.0,
                  "frac");
  trace.set_exact(
      "exchange.failed_contact_frac",
      static_cast<double>(t.failed_contacts) / ledger.node_rounds, "frac");
  trace.set_exact(
      "overlay.bytes_per_node_round",
      static_cast<double>(t.on(host::Channel::kOverlay).bytes_sent) /
          ledger.node_rounds,
      "B");
}

void print_ledger(const Ledger& ledger) {
  const host::TrafficStats& t = ledger.traffic;
  std::printf("# ledger (first epoch, %.0f node-rounds):", ledger.node_rounds);
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    std::printf(" %s=%" PRIu64 "msg/%" PRIu64 "B",
                host::channel_name(static_cast<host::Channel>(c)),
                t.channels[c].messages_sent, t.channels[c].bytes_sent);
  }
  std::printf(" failed_contacts=%" PRIu64 " dropped=%" PRIu64
              " duplicated=%" PRIu64 " crash_restarts=%" PRIu64 "\n",
              t.failed_contacts, t.dropped_messages, t.duplicated_messages,
              t.crash_restarts);
}

bool is_probe_round(const WorkloadSpec& spec, std::size_t offset) {
  return std::find(spec.probe_rounds.begin(), spec.probe_rounds.end(),
                   offset) != spec.probe_rounds.end();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RunResult run_workload(const RunOptions& options) {
  const WorkloadSpec& spec = options.spec;
  const std::size_t workers = workers_for(spec);
  RunResult result;

  // 1. Inputs: the population, from the seed alone.
  rng::Rng population_rng(options.seed * kGolden ^
                          (static_cast<std::uint64_t>(spec.attribute) + 1));
  const std::vector<stats::Value> values =
      data::generate_population(spec.attribute, spec.nodes, population_rng);
  const data::Attribute attribute = spec.attribute;
  const host::AttributeSource churn_source = [attribute](rng::Rng& rng) {
    return data::sample_attribute(attribute, rng);
  };
  const core::SystemConfig config = system_config(spec, options.seed, workers);
  std::printf("# workload %s: nodes=%zu workers=%zu seed=%" PRIu64
              " trace=%d\n",
              spec.name.c_str(), spec.nodes, workers, options.seed,
              options.trace ? 1 : 0);

  // 2. Set-up, repeated for half as long as the measurement runs, and at
  // least once; the last system is the one measured. A single 50 ms set-up
  // at N=5000 reads the host's speed at one instant, and on a shared host
  // that speed swings by up to 2x from second to second.
  std::unique_ptr<core::Adam2System> system;
  std::vector<double> setup_times;
  double setup_total_s = 0.0;
  do {
    system.reset();
    const Clock::time_point begin = Clock::now();
    system = std::make_unique<core::Adam2System>(config, values, churn_source);
    system->run_rounds(kWarmupRounds);
    setup_times.push_back(seconds_since(begin));
    setup_total_s += setup_times.back();
  } while (setup_total_s < 0.5 * options.seconds);
  std::printf("# setup_s: median of %zu set-ups (%.2f s)\n",
              setup_times.size(), setup_total_s);
  sim::CycleEngine& engine = system->engine();

  // 3. Measurement.
  const std::size_t ttl_rounds = config.protocol.instance_ttl + 1u;
  const host::TrafficStats traffic_at_start = engine.total_traffic();

  LayerTrace trace;
  ProbeSite site;
  site.system = system.get();
  site.config = config;
  site.churn_source = churn_source;
  site.workers = workers;
  site.seed = options.seed;
  site.write_live = options.sabotage == "probe_write";
  std::vector<double> round_times;
  double node_rounds = 0.0;
  Ledger ledger;
  double peak_rss = 0.0;

  const Clock::time_point begin = Clock::now();
  for (std::size_t step = 0;; ++step) {
    const std::size_t epoch = step / spec.epoch_rounds;
    const std::size_t offset = step % spec.epoch_rounds;
    // Stop only where a new instance would start, so every run samples
    // whole instance lifetimes (a round's cost depends on how far the
    // instances in flight have spread).
    if (epoch >= 1 && offset % spec.start_every == 0 &&
        seconds_since(begin) >= options.seconds) {
      break;
    }

    const double live = static_cast<double>(engine.live_count());
    const Clock::time_point round_begin = Clock::now();
    if (offset % spec.start_every == 0) site.instance = system->start_instance();
    if (options.trace && is_probe_round(spec, offset)) {
      site.churn_per_round = spec.churn_rate * live;
      trace.measured_round(site);
      trace.probe(site);
    } else {
      engine.run_round();
    }
    round_times.push_back(seconds_since(round_begin));
    node_rounds += live;
    if (epoch > 0) continue;

    // First epoch: checks, exact counters, digest. A check counts the peers
    // born before the last completed instance started.
    ledger.node_rounds += live;
    if ((offset + 1) % spec.check_every == 0) {
      result.correct =
          check_estimates(*system, spec,
                          static_cast<wire::Round>(engine.round() - ttl_rounds),
                          options.sabotage, result) &&
          result.correct;
    }
    if (offset + 1 == spec.epoch_rounds) {
      peak_rss = peak_rss_mb();
      ledger.traffic = minus(engine.total_traffic(), traffic_at_start);
      print_ledger(ledger);
      const std::uint64_t digest =
          host::snapshot::fnv1a(engine.save_snapshot());
      result.correct = check_digest(options, digest) && result.correct;
      trace.set_exact("state_digest_hi", static_cast<double>(digest >> 32),
                      "count");
      trace.set_exact("state_digest_lo",
                      static_cast<double>(digest & 0xffffffffULL), "count");
      trace.set_exact("registry.nodes_ever",
                      static_cast<double>(engine.nodes_ever()), "count");
    }
  }

  const double total_round_s =
      std::accumulate(round_times.begin(), round_times.end(), 0.0);
  std::printf("# measured %zu rounds (%zu per epoch) in %.3f s\n",
              round_times.size(), spec.epoch_rounds, total_round_s);

  if (options.trace) {
    const bool intact = trace.probes_left_state_intact();
    std::printf("# probes left the measured state unchanged (%u probes): %s\n",
                trace.probe_count(), intact ? "ok" : "FAILED");
    result.correct = intact && result.correct;
    record_ledger(ledger, trace);
    trace.set_exact("eval.peers", static_cast<double>(result.attempted),
                    "count");
    trace.set_exact("eval.missing", static_cast<double>(result.failed),
                    "count");
    result.metrics = trace.metrics();
    if (!options.state_dir.empty()) {
      (void)trace.write_spans(options.state_dir + "/spans-" + spec.name +
                              "-s" + std::to_string(options.seed) + ".tsv");
    }
    return result;
  }

  std::printf("# round_s.p50 over %zu rounds\n", round_times.size());
  result.metrics = {
      {"setup_s", median(setup_times), "s"},
      {"node_rounds_per_s", node_rounds / total_round_s, "1/s"},
      {"round_s.p50", median(round_times), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"bytes_per_node_round",
       static_cast<double>(ledger.traffic.total_bytes_sent()) /
           ledger.node_rounds,
       "B"},
  };
  return result;
}

}  // namespace perfbench
