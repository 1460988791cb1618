// adam2_sim — run configurable Adam2 simulations from the command line.
//
// Examples:
//   adam2_sim --nodes 10000 --attribute ram_mb --instances 3
//   adam2_sim --attribute cpu_mflops --heuristic lcut --churn 0.001
//             --verification 20 --format csv            (one line)
//   adam2_sim --trace hosts.csv --attribute bandwidth_kbps --lambda 80
//
// Prints one row per completed instance: population errors (entire domain
// and at the interpolation points), the system-size estimate, and the
// per-node traffic so far.
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "data/trace.hpp"
#include "host/fault.hpp"
#include "host/snapshot.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "options.hpp"
#include "sim/async_engine.hpp"

using namespace adam2;

namespace {

constexpr char kUsage[] = R"(usage: adam2_sim [flags]

population:
  --nodes N            population size (default 10000; ignored with --trace)
  --attribute NAME     cpu_mflops | ram_mb | bandwidth_kbps | disk_gb
  --trace FILE         load the population from a host-trace CSV
  --seed S             master seed (default 42)

protocol:
  --instances K        consecutive aggregation instances to run (default 3)
  --lambda L           interpolation points (default 50)
  --ttl T              rounds per instance (default 25)
  --heuristic H        minmax | hcut | lcut (default minmax)
  --bootstrap B        neighbour | uniform (default neighbour)
  --verification V     verification points, 0 disables (default 0)
  --combine K          combine points of the last K instances (default 1)

substrate:
  --overlay O          cyclon | static (default cyclon)
  --degree D           overlay degree / view size (default 20)
  --churn C            fraction of nodes replaced per round (default 0)

faults (deterministic injection, DESIGN.md §8; all default 0 = off):
  --fault-drop P       drop each message with probability P (the one
                       message-loss knob)
  --fault-duplicate P  deliver each message twice with probability P
  --fault-corrupt P    truncate/byte-flip the payload with probability P
  --fault-crash P      per-node crash-restart (state loss) per round
  --fault-delay P      extra delivery delay probability (--async only)
  --fault-max-delay S  max extra delay in seconds (default 0.5)
  --fault-partitions K split the overlay into K isolated groups
  --fault-start R      round/second the partition begins (default 0)
  --fault-heal K       partition heals after K rounds/seconds, 0 = never
  --fault-seed S       fault-schedule seed, independent of --seed
  --async              use the event-driven engine (jittered periods,
                       real message latencies, exchange atomicity)
  --latency-max MS     max one-way latency in ms for --async (default 100)
  --threads T          worker threads for the cycle engine; T > 1 shards
                       its round phases, with bit-identical results at any
                       thread count (default 0)

checkpoint (host::snapshot, DESIGN.md §12):
  --snapshot-out FILE  save the full engine state at the end of the run
                       (atomic: temp file + fsync + rename)
  --snapshot-in FILE   restore the engine state before running; the flags
                       must reproduce the saving run's configuration, and
                       the restore replaces the warm-up phase

output:
  --format F           table | csv (default table)
  --eval-sample N      evaluate N sampled peers, 0 = all (default 400)

observability (obs::Recorder, DESIGN.md §11; each writes atomically):
  --trace-out FILE     structured event trace as JSONL (round begin/end,
                       exchange fates, crashes, churn, instance lifecycle)
  --metrics-out FILE   metrics-registry snapshot as JSON (traffic counters,
                       exchange-fate counts, message-size histograms)
  --manifest-out FILE  run manifest as JSON (seed, config echo, engine
                       kind, build flags)
  --help               this text
)";

data::Attribute parse_attribute(const std::string& name) {
  for (data::Attribute a : data::kAllAttributes) {
    if (name == data::attribute_name(a)) return a;
  }
  throw std::invalid_argument("unknown attribute '" + name + "'");
}

core::SelectionHeuristic parse_heuristic(const std::string& name) {
  if (name == "minmax") return core::SelectionHeuristic::kMinMax;
  if (name == "hcut") return core::SelectionHeuristic::kHCut;
  if (name == "lcut") return core::SelectionHeuristic::kLCut;
  throw std::invalid_argument("unknown heuristic '" + name + "'");
}

/// Writes whichever observability artifacts were requested; throws on an
/// export that could not be written (partial artifacts are never left
/// behind — obs::atomic_write_file renames a complete temp file or nothing).
void write_observability(const obs::Recorder& recorder,
                         const std::string& trace_out,
                         const std::string& metrics_out,
                         const std::string& manifest_out) {
  if (!trace_out.empty() &&
      !obs::write_trace_jsonl(trace_out, recorder.trace())) {
    throw std::runtime_error("cannot write trace to " + trace_out);
  }
  if (!metrics_out.empty() &&
      !obs::write_metrics_json(metrics_out, recorder.metrics())) {
    throw std::runtime_error("cannot write metrics to " + metrics_out);
  }
  if (!manifest_out.empty() &&
      !obs::write_manifest_json(manifest_out, recorder.manifest())) {
    throw std::runtime_error("cannot write manifest to " + manifest_out);
  }
}

/// Loads a snapshot file, mapping both I/O and size failures to one
/// diagnostic (container-level validation happens inside restore_snapshot).
std::vector<std::byte> load_snapshot(const std::string& path) {
  std::string error;
  auto bytes = host::snapshot::read_snapshot_file(path, &error);
  if (!bytes) {
    throw std::runtime_error("cannot read snapshot " + path + ": " + error);
  }
  return std::move(*bytes);
}

void store_snapshot(const std::string& path,
                    std::span<const std::byte> bytes) {
  if (!obs::atomic_write_file(path, bytes)) {
    throw std::runtime_error("cannot write snapshot to " + path);
  }
}

int run(const tools::Options& flags) {
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const data::Attribute attribute =
      parse_attribute(flags.get("attribute", "ram_mb"));

  std::vector<stats::Value> values;
  if (flags.has("trace")) {
    const auto records =
        data::filter_faulty(data::load_trace(flags.get("trace", "")));
    values = data::attribute_column(records, attribute);
  } else {
    rng::Rng data_rng(seed ^ 0xda7aULL);
    values = data::generate_population(
        attribute, static_cast<std::size_t>(flags.get_int("nodes", 10000)),
        data_rng);
  }
  if (values.empty()) throw std::runtime_error("empty population");

  core::SystemConfig config;
  config.engine.seed = seed;
  config.engine.churn_rate = flags.get_double("churn", 0.0);
  config.protocol.lambda =
      static_cast<std::size_t>(flags.get_int("lambda", 50));
  config.protocol.instance_ttl =
      static_cast<std::uint16_t>(flags.get_int("ttl", 25));
  config.protocol.heuristic =
      parse_heuristic(flags.get("heuristic", "minmax"));
  config.protocol.bootstrap = flags.get("bootstrap", "neighbour") == "uniform"
                                  ? core::BootstrapPoints::kUniform
                                  : core::BootstrapPoints::kNeighbourBased;
  config.protocol.verification_points =
      static_cast<std::size_t>(flags.get_int("verification", 0));
  config.protocol.combine_last_instances =
      static_cast<std::size_t>(flags.get_int("combine", 1));
  config.overlay = flags.get("overlay", "cyclon") == "static"
                       ? core::OverlayKind::kStaticRandom
                       : core::OverlayKind::kCyclon;
  const std::int64_t degree = flags.get_int("degree", 20);
  if (degree < 0) {
    throw std::invalid_argument("--degree must be >= 0, got " +
                                std::to_string(degree));
  }
  config.overlay_degree = static_cast<std::size_t>(degree);
  const std::int64_t threads = flags.get_int("threads", 0);
  if (threads < 0) {
    throw std::invalid_argument("--threads must be >= 0, got " +
                                std::to_string(threads));
  }
  config.engine_threads = static_cast<std::size_t>(threads);
  config.engine.faults = tools::parse_fault_plan(flags);

  const auto instances =
      static_cast<std::size_t>(flags.get_int("instances", 3));
  const bool csv = flags.get("format", "table") == "csv";
  const bool use_async = flags.get_bool("async");
  const double latency_max = flags.get_double("latency-max", 100.0) / 1000.0;
  core::EvaluationOptions options;
  options.peer_sample =
      static_cast<std::size_t>(flags.get_int("eval-sample", 400));
  const std::string trace_out = flags.get("trace-out", "");
  const std::string metrics_out = flags.get("metrics-out", "");
  const std::string manifest_out = flags.get("manifest-out", "");
  const std::string snapshot_in = flags.get("snapshot-in", "");
  const std::string snapshot_out = flags.get("snapshot-out", "");
  flags.reject_unknown();

  // Observability is opt-in: without any of the three output flags no
  // recorder exists and the engines run their zero-overhead null path.
  std::optional<obs::Recorder> recorder;
  if (!trace_out.empty() || !metrics_out.empty() || !manifest_out.empty()) {
    recorder.emplace();
    recorder->manifest().name = "adam2_sim";
    recorder->manifest().set("attribute", data::attribute_name(attribute));
    recorder->manifest().set("instances",
                             static_cast<std::uint64_t>(instances));
  }

  if (use_async) {
    sim::AsyncConfig async_config;
    async_config.seed = seed;
    async_config.latency_max = latency_max;
    async_config.churn_per_second = config.engine.churn_rate;
    async_config.faults = config.engine.faults;
    const core::Adam2Config protocol = config.protocol;
    sim::AsyncEngine engine(
        async_config, values,
        core::make_overlay(config.overlay, config.overlay_degree),
        [protocol](const host::AgentContext&) {
          return std::make_unique<core::Adam2Agent>(protocol);
        },
        config.engine.churn_rate > 0.0
            ? host::AttributeSource([attribute](rng::Rng& rng) {
                return data::sample_attribute(attribute, rng);
              })
            : host::AttributeSource{});
    if (recorder) {
      engine.set_recorder(&*recorder);
      recorder->engine_start("async", 0, values.size());
      recorder->manifest().seed = seed;
      recorder->manifest().set("nodes",
                               static_cast<std::uint64_t>(values.size()));
      recorder->manifest().set("churn_per_second",
                               async_config.churn_per_second);
    }
    // Resume replaces the warm-up: the snapshot already holds the warmed
    // state, and run_until is a no-op once simulated time has passed 5 s.
    if (!snapshot_in.empty()) {
      engine.restore_snapshot(load_snapshot(snapshot_in));
    }
    engine.run_until(5.0);
    if (csv) {
      std::printf("instance,errm,erra,points_errm,points_erra\n");
    } else {
      std::printf("%8s %12s %12s %13s %13s   (event-driven)\n", "instance",
                  "Errm", "Erra", "points_Errm", "points_Erra");
    }
    for (std::size_t i = 1; i <= instances; ++i) {
      const auto initiator = engine.random_live_node();
      auto ctx = engine.context_for(initiator);
      dynamic_cast<core::Adam2Agent&>(engine.agent(initiator))
          .start_instance(ctx);
      engine.run_until(engine.now() +
                       config.protocol.instance_ttl * 1.1 + 3.0);
      const stats::EmpiricalCdf truth{engine.live_attribute_values()};
      const auto entire = core::evaluate_estimates(engine, truth, options);
      const auto points =
          core::evaluate_estimate_points(engine, truth, options);
      if (csv) {
        std::printf("%zu,%.8g,%.8g,%.8g,%.8g\n", i, entire.max_err,
                    entire.avg_err, points.max_err, points.avg_err);
      } else {
        std::printf("%8zu %12.5g %12.5g %13.5g %13.5g\n", i, entire.max_err,
                    entire.avg_err, points.max_err, points.avg_err);
      }
    }
    if (!snapshot_out.empty()) {
      store_snapshot(snapshot_out, engine.save_snapshot());
    }
    if (recorder) {
      recorder->engine_stop(engine.round());
      recorder->set_traffic(engine.total_traffic());
      write_observability(*recorder, trace_out, metrics_out, manifest_out);
    }
    return 0;
  }

  core::Adam2System system(
      config, values,
      config.engine.churn_rate > 0.0
          ? host::AttributeSource([attribute](rng::Rng& rng) {
              return data::sample_attribute(attribute, rng);
            })
          : host::AttributeSource{});
  if (recorder) system.attach_recorder(&*recorder);
  if (!snapshot_in.empty()) {
    // Resume replaces the warm-up: the snapshot already holds the warmed
    // descriptor caches (and round counter) of the saving run.
    system.engine().restore_snapshot(load_snapshot(snapshot_in));
  } else {
    system.run_rounds(5);  // Warm up the peer-sampling descriptor caches.
  }

  if (csv) {
    std::printf("instance,errm,erra,points_errm,points_erra,n_estimate,"
                "est_erra,sent_kb_per_node\n");
  } else {
    std::printf("%8s %12s %12s %13s %13s %12s %10s %12s\n", "instance",
                "Errm", "Erra", "points_Errm", "points_Erra", "N_est",
                "EstErra", "sent_kB/nd");
  }

  for (std::size_t i = 1; i <= instances; ++i) {
    system.run_instance();
    const stats::EmpiricalCdf truth = system.truth();
    const auto entire = core::evaluate_estimates(system.engine(), truth, options);
    const auto points =
        core::evaluate_estimate_points(system.engine(), truth, options);
    const auto& agent = system.agent_of(system.engine().live_ids().front());
    const double n_est = agent.estimate() ? agent.estimate()->n_estimate : 0.0;
    const double est_erra =
        agent.estimate() && agent.estimate()->self_assessment
            ? agent.estimate()->self_assessment->avg_err
            : 0.0;
    const double sent_kb =
        static_cast<double>(system.engine()
                                .total_traffic()
                                .on(host::Channel::kAggregation)
                                .bytes_sent) /
        static_cast<double>(system.engine().live_count()) / 1024.0;
    if (csv) {
      std::printf("%zu,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g\n", i,
                  entire.max_err, entire.avg_err, points.max_err,
                  points.avg_err, n_est, est_erra, sent_kb);
    } else {
      std::printf("%8zu %12.5g %12.5g %13.5g %13.5g %12.1f %10.4g %12.1f\n", i,
                  entire.max_err, entire.avg_err, points.max_err,
                  points.avg_err, n_est, est_erra, sent_kb);
    }
  }
  if (!snapshot_out.empty()) {
    store_snapshot(snapshot_out, system.engine().save_snapshot());
  }
  if (recorder) {
    recorder->engine_stop(system.engine().round());
    recorder->set_traffic(system.engine().total_traffic());
    write_observability(*recorder, trace_out, metrics_out, manifest_out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(tools::Options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "adam2_sim: %s\n", error.what());
    std::fputs(kUsage, stderr);
    return 1;
  }
}
