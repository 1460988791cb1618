#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/evaluation.hpp"
#include "obs/export.hpp"
#include "options.hpp"

namespace adam2::bench {
namespace {

/// The mirrored report. Benches are single-threaded mains, so one global
/// instance with no locking is enough.
struct Report {
  bool armed = false;
  std::string name;
  BenchEnv env;
  std::vector<std::pair<std::string, double>> phases;   ///< Accumulated secs.
  std::vector<std::pair<std::string, double>> metrics;  ///< Accumulated.
  struct Series {
    std::string label;
    std::vector<std::string> columns;
    std::vector<std::pair<std::string, std::vector<double>>> rows;
  };
  std::vector<Series> series;
  /// Observability recorder shared by every engine a series driver builds
  /// during this report (pointer: Recorder is intentionally non-copyable).
  std::unique_ptr<obs::Recorder> recorder;
};

Report g_report;

void accumulate(std::vector<std::pair<std::string, double>>& into,
                const std::string& key, double value) {
  for (auto& [k, v] : into) {
    if (k == key) {
      v += value;
      return;
    }
  }
  into.emplace_back(key, value);
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  out += obs::json_escape(s);
  out += '"';
}

void json_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

BenchEnv bench_env(std::size_t default_n) {
  // Same ADAM2_BENCH_* names as ever, parsed through the shared typed
  // option helper the CLI tools use (tools/options.hpp).
  const tools::Options vars = tools::Options::from_env("ADAM2_BENCH");
  BenchEnv env;
  env.n = default_n;
  if (vars.get_int("full", 0) != 0) env.n = 100000;
  env.n = static_cast<std::size_t>(
      vars.get_int("n", static_cast<std::int64_t>(env.n)));
  env.seed = static_cast<std::uint64_t>(vars.get_int("seed", 42));
  env.peer_sample = static_cast<std::size_t>(vars.get_int("peers", 400));
  env.threads = static_cast<std::size_t>(vars.get_int("threads", 0));
  env.faults = tools::parse_fault_plan(vars);
  return env;
}

std::vector<stats::Value> population(data::Attribute kind, std::size_t n,
                                     std::uint64_t seed) {
  rng::Rng rng(seed ^ (static_cast<std::uint64_t>(kind) + 1) * 0x9e37ULL);
  return data::generate_population(kind, n, rng);
}

void print_banner(const std::string& title, const BenchEnv& env) {
  std::printf("# %s\n", title.c_str());
  std::printf("# nodes=%zu seed=%llu peer_sample=%zu threads=%zu\n", env.n,
              static_cast<unsigned long long>(env.seed), env.peer_sample,
              env.threads);
}

void print_header(const std::string& label,
                  const std::vector<std::string>& columns) {
  std::printf("%-28s", label.c_str());
  for (const std::string& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
  if (g_report.armed) {
    g_report.series.push_back({label, columns, {}});
  }
}

void print_row(const std::string& label, const std::vector<double>& values) {
  std::printf("%-28s", label.c_str());
  for (double v : values) std::printf(" %14.6g", v);
  std::printf("\n");
  if (g_report.armed && !g_report.series.empty()) {
    g_report.series.back().rows.emplace_back(label, values);
  }
}

void open_report(const std::string& name, const BenchEnv& env) {
  g_report = Report{};
  g_report.armed = true;
  g_report.name = name;
  g_report.env = env;
  g_report.recorder = std::make_unique<obs::Recorder>();
  obs::RunManifest& manifest = g_report.recorder->manifest();
  manifest.name = name;
  manifest.seed = env.seed;
  manifest.threads = std::max<std::size_t>(env.threads, 1);
  manifest.set("nodes", static_cast<std::uint64_t>(env.n));
  manifest.set("peer_sample", static_cast<std::uint64_t>(env.peer_sample));
}

obs::Recorder* report_recorder() {
  return g_report.armed ? g_report.recorder.get() : nullptr;
}

void report_metric(const std::string& key, double value) {
  if (g_report.armed) accumulate(g_report.metrics, key, value);
}

PhaseTimer::PhaseTimer(std::string phase)
    : phase_(std::move(phase)), start_(std::chrono::steady_clock::now()) {}

PhaseTimer::~PhaseTimer() {
  if (!g_report.armed) return;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  accumulate(g_report.phases, phase_, elapsed.count());
}

std::string emit_json() {
  if (!g_report.armed) return {};
  const char* dir = std::getenv("ADAM2_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return {};
  const std::string path =
      (std::filesystem::path(dir) / ("BENCH_" + g_report.name + ".json"))
          .string();

  std::string out;
  out.reserve(4096);
  out += "{\n  \"name\": ";
  json_string(out, g_report.name);
  out += ",\n  \"nodes\": " + std::to_string(g_report.env.n);
  out += ",\n  \"seed\": " + std::to_string(g_report.env.seed);
  out += ",\n  \"peer_sample\": " + std::to_string(g_report.env.peer_sample);
  out += ",\n  \"threads\": " + std::to_string(g_report.env.threads) + ",\n";

  const auto dump_map =
      [&out](const char* key,
             const std::vector<std::pair<std::string, double>>& entries) {
        out += "  \"";
        out += key;
        out += "\": {";
        bool first = true;
        for (const auto& [k, v] : entries) {
          out += first ? "\n    " : ",\n    ";
          first = false;
          json_string(out, k);
          out += ": ";
          json_double(out, v);
        }
        out += entries.empty() ? "},\n" : "\n  },\n";
      };
  dump_map("phases_seconds", g_report.phases);
  dump_map("metrics", g_report.metrics);

  out += "  \"series\": [";
  for (std::size_t s = 0; s < g_report.series.size(); ++s) {
    const Report::Series& series = g_report.series[s];
    out += s == 0 ? "\n    {\"label\": " : ",\n    {\"label\": ";
    json_string(out, series.label);
    out += ", \"columns\": [";
    for (std::size_t c = 0; c < series.columns.size(); ++c) {
      if (c > 0) out += ", ";
      json_string(out, series.columns[c]);
    }
    out += "], \"rows\": [";
    for (std::size_t r = 0; r < series.rows.size(); ++r) {
      const auto& [label, values] = series.rows[r];
      out += r == 0 ? "\n      {\"label\": " : ",\n      {\"label\": ";
      json_string(out, label);
      out += ", \"values\": [";
      for (std::size_t v = 0; v < values.size(); ++v) {
        if (v > 0) out += ", ";
        json_double(out, values[v]);
      }
      out += "]}";
    }
    out += series.rows.empty() ? "]}" : "\n    ]}";
  }
  out += g_report.series.empty() ? "]\n}\n" : "\n  ]\n}\n";

  // Atomic publication (write temp, fsync, rename): a crashed bench or a
  // racing artifact collector never sees a truncated BENCH_*.json.
  if (!obs::atomic_write_file(path, std::as_bytes(std::span(out)))) return {};

  // The run manifest and metrics snapshot ride alongside every report.
  if (g_report.recorder != nullptr) {
    const std::filesystem::path base{dir};
    obs::write_manifest_json(
        (base / ("MANIFEST_" + g_report.name + ".json")).string(),
        g_report.recorder->manifest());
    obs::write_metrics_json(
        (base / ("METRICS_" + g_report.name + ".json")).string(),
        g_report.recorder->metrics());
  }
  return path;
}

core::SystemConfig default_system(const BenchEnv& env) {
  core::SystemConfig config;
  config.engine.seed = env.seed;
  config.protocol.lambda = 50;
  config.protocol.instance_ttl = 25;
  config.protocol.heuristic = core::SelectionHeuristic::kMinMax;
  config.protocol.bootstrap = core::BootstrapPoints::kNeighbourBased;
  config.overlay = core::OverlayKind::kCyclon;
  config.overlay_degree = 20;
  config.engine_threads = env.threads;
  config.engine.faults = env.faults;
  return config;
}

host::AttributeSource churn_source(data::Attribute kind) {
  return [kind](rng::Rng& rng) { return data::sample_attribute(kind, rng); };
}

std::vector<InstanceResult> run_adam2_series(
    const core::SystemConfig& config, const std::vector<stats::Value>& values,
    std::size_t instances, const BenchEnv& env,
    host::AttributeSource churn) {
  core::Adam2System system(config, values, std::move(churn));
  system.attach_recorder(report_recorder());
  const stats::EmpiricalCdf truth{values};
  // Let the peer-sampling service mix before the first instance, so the
  // neighbour-based bootstrap draws from a warm descriptor cache.
  system.run_rounds(5);

  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  options.threads = env.threads;

  std::vector<InstanceResult> results;
  results.reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    {
      PhaseTimer timer("gossip");
      system.run_instance();
    }
    InstanceResult r;
    PhaseTimer timer("evaluate");
    // Under churn the truth drifts; evaluate against the current population.
    const stats::EmpiricalCdf current_truth =
        config.engine.churn_rate > 0.0 ? system.truth() : truth;
    const auto entire =
        core::evaluate_estimates(system.engine(), current_truth, options);
    const auto at_points =
        core::evaluate_estimate_points(system.engine(), current_truth, options);
    r.entire = {entire.max_err, entire.avg_err};
    r.at_points = {at_points.max_err, at_points.avg_err};
    results.push_back(r);
  }
  const auto& traffic = system.engine().total_traffic();
  report_metric("aggregation_bytes_sent",
                static_cast<double>(
                    traffic.on(host::Channel::kAggregation).bytes_sent));
  report_metric("total_bytes_sent",
                static_cast<double>(traffic.total_bytes_sent()));
  return results;
}

std::vector<InstanceResult> run_equidepth_series(
    const baselines::EquiDepthConfig& config, const sim::EngineConfig& engine,
    const std::vector<stats::Value>& values, std::size_t phases,
    const BenchEnv& env, host::AttributeSource churn) {
  sim::CycleEngine sim_engine(
      engine, values, core::make_overlay(core::OverlayKind::kCyclon, 20),
      [config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(config);
      },
      std::move(churn));
  if (obs::Recorder* recorder = report_recorder(); recorder != nullptr) {
    sim_engine.set_recorder(recorder);
    recorder->engine_start("serial", 0, values.size());
  }
  const stats::EmpiricalCdf truth{values};

  core::EvaluationOptions options;
  options.peer_sample = env.peer_sample;
  options.threads = env.threads;
  std::vector<InstanceResult> results;
  results.reserve(phases);
  for (std::size_t i = 0; i < phases; ++i) {
    const host::NodeId initiator = sim_engine.random_live_node();
    auto ctx = sim_engine.context_for(initiator);
    auto& agent =
        dynamic_cast<baselines::EquiDepthAgent&>(sim_engine.agent(initiator));
    const wire::InstanceId phase = agent.start_phase(ctx);
    // Evaluate the bins while the phase is still live (last gossip round),
    // then let it finalise and evaluate the population estimates.
    {
      PhaseTimer timer("gossip");
      sim_engine.run_rounds(config.phase_ttl);
    }
    PhaseTimer timer("evaluate");
    const stats::EmpiricalCdf current_truth =
        engine.churn_rate > 0.0
            ? stats::EmpiricalCdf{sim_engine.live_attribute_values()}
            : truth;
    const auto bins = baselines::evaluate_equidepth_phase_points(
        sim_engine, phase, current_truth, options);
    {
      PhaseTimer gossip_timer("gossip");
      sim_engine.run_rounds(1);
    }
    const auto pop =
        baselines::evaluate_equidepth(sim_engine, current_truth, options);
    InstanceResult r;
    r.entire = {pop.max_err, pop.avg_err};
    r.at_points = {bins.max_err, bins.avg_err};
    results.push_back(r);
  }
  const auto& traffic = sim_engine.total_traffic();
  report_metric("aggregation_bytes_sent",
                static_cast<double>(
                    traffic.on(host::Channel::kAggregation).bytes_sent));
  report_metric("total_bytes_sent",
                static_cast<double>(traffic.total_bytes_sent()));
  return results;
}

double peak_rss_mb() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
#else
  return 0.0;
#endif
}

}  // namespace adam2::bench
