// Figure 11: influence of the system size on approximation accuracy.
//
// Errm (MinMax) and Erra (LCut) after 3 instances for system sizes from 100
// to 100,000 nodes (capped at 10x the configured bench size by default; run
// with ADAM2_BENCH_FULL=1 for paper scale). Expected shape: Errm stays in
// the same order of magnitude across sizes; Erra *decreases* with size
// because larger populations have longer, easily-interpolated tails.
//
// With ADAM2_BENCH_THREADS=<t> (t > 1) each row runs the sharded
// CycleEngine and is re-run serially for comparison: the row gains a
// speedup column plus a `match` flag checking that the parallel errors are
// bit-identical to the serial ones (the engine's determinism contract).
//
// With ADAM2_BENCH_HIGHN=<maxN> an additional high-N sweep runs one
// instance per size on sizes up to 1,000,000 (capped at maxN), with sampled
// evaluation only: it records a per-round wall-clock series for every size
// plus peak RSS after each row, profiling memory-layout behaviour at
// million-node rounds rather than accuracy (which the main sweep covers).
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/evaluation.hpp"
#include "host/snapshot.hpp"
#include "obs/export.hpp"

using namespace adam2;

namespace {

struct RowResult {
  double errm[2];
  double erra[2];
  double wall_s = 0.0;
};

RowResult run_row(const bench::BenchEnv& sized, std::size_t n,
                  std::uint64_t seed, std::size_t instances) {
  RowResult row;
  const auto start = std::chrono::steady_clock::now();
  int idx = 0;
  for (data::Attribute attribute :
       {data::Attribute::kCpuMflops, data::Attribute::kRamMb}) {
    const auto values = bench::population(attribute, n, seed);

    core::SystemConfig mm = bench::default_system(sized);
    mm.protocol.heuristic = core::SelectionHeuristic::kMinMax;
    row.errm[idx] = bench::run_adam2_series(mm, values, instances, sized)
                        .back()
                        .entire.max_err;

    core::SystemConfig lc = bench::default_system(sized);
    lc.protocol.heuristic = core::SelectionHeuristic::kLCut;
    row.erra[idx] = bench::run_adam2_series(lc, values, instances, sized)
                        .back()
                        .entire.avg_err;
    ++idx;
  }
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  return row;
}

/// Checkpoint hooks for the resume-smoke CI job (DESIGN.md §12):
/// ADAM2_SNAPSHOT_OUT=<file> saves the engine state at round
/// ADAM2_SNAPSHOT_AT=<k> (default: half the instance TTL) of the high-N
/// sweep's first size; ADAM2_SNAPSHOT_IN=<file> restores it instead of the
/// warm-up + first k rounds, and the resumed run's BENCH JSON metrics
/// (including the final-state snapshot digest) must bit-match the
/// uninterrupted run's.
struct SnapshotHooks {
  const char* out = std::getenv("ADAM2_SNAPSHOT_OUT");
  const char* in = std::getenv("ADAM2_SNAPSHOT_IN");
  const char* at = std::getenv("ADAM2_SNAPSHOT_AT");

  [[nodiscard]] bool active() const { return out != nullptr || in != nullptr; }
  [[nodiscard]] std::size_t save_round(std::size_t rounds) const {
    return at != nullptr && *at != '\0' ? std::strtoull(at, nullptr, 10)
                                        : rounds / 2;
  }
};

/// High-N sweep (ADAM2_BENCH_HIGHN=<maxN>): one single-attribute instance
/// per size, driven round by round so the report carries a wall-clock value
/// for every gossip round, plus peak RSS after each size. Evaluation is
/// always sampled — a full-population sweep at 1M nodes would dwarf the
/// gossip being measured.
void run_high_n_sweep(const bench::BenchEnv& env, std::size_t max_n) {
  std::vector<std::size_t> sizes{1000,   10000,  31623,
                                 100000, 316228, 1000000};
  std::erase_if(sizes, [&](std::size_t n) { return n > max_n; });
  const SnapshotHooks snapshot;

  std::vector<std::vector<double>> summaries;
  for (std::size_t size_idx = 0; size_idx < sizes.size(); ++size_idx) {
    const std::size_t n = sizes[size_idx];
    bench::BenchEnv sized = env;
    sized.n = n;
    const auto values =
        bench::population(data::Attribute::kRamMb, n, env.seed);
    const core::SystemConfig config = bench::default_system(sized);
    core::Adam2System system(config, values);
    system.attach_recorder(bench::report_recorder());
    const std::size_t rounds = config.protocol.instance_ttl + 1u;
    // The hooks bind to the sweep's first size only: a snapshot resumes
    // under the exact configuration that produced it, and the CI job runs a
    // single-size sweep anyway.
    const bool hooked = snapshot.active() && size_idx == 0;
    const bool resumed = hooked && snapshot.in != nullptr;
    std::size_t first_round = 0;
    if (resumed) {
      std::string error;
      const auto bytes =
          host::snapshot::read_snapshot_file(snapshot.in, &error);
      if (!bytes) {
        throw std::runtime_error(std::string("cannot read snapshot: ") +
                                 error);
      }
      // Resume replaces warm-up + start_instance + the first k rounds.
      system.engine().restore_snapshot(*bytes);
      first_round = snapshot.save_round(rounds);
    } else {
      system.run_rounds(5);  // Warm the peer-sampling descriptor caches.
    }

    bench::print_header("highN_" + std::to_string(n) + "_round",
                        {"wall_s"});
    // The snapshot is taken after start_instance, so a resumed run never
    // starts its own (even when resuming from round 0).
    if (!resumed) system.start_instance();
    double total_s = 0.0;
    for (std::size_t r = first_round; r < rounds; ++r) {
      if (hooked && snapshot.out != nullptr &&
          r == snapshot.save_round(rounds)) {
        const auto bytes = system.engine().save_snapshot();
        if (!obs::atomic_write_file(snapshot.out, bytes)) {
          throw std::runtime_error("cannot write snapshot");
        }
      }
      const auto begin = std::chrono::steady_clock::now();
      system.run_rounds(1);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        begin)
              .count();
      total_s += wall_s;
      bench::print_row(std::to_string(r), {wall_s});
    }
    if (hooked) {
      // The resumed-vs-uninterrupted comparison pins the *complete* final
      // engine state, not just the error metrics: re-encode it and report
      // the container digest as two exact-match halves (bench_diff.py
      // treats metric names containing "digest" as exact).
      const std::uint64_t digest =
          host::snapshot::fnv1a(system.engine().save_snapshot());
      bench::report_metric("final_state_digest_hi",
                           static_cast<double>(digest >> 32));
      bench::report_metric("final_state_digest_lo",
                           static_cast<double>(digest & 0xffffffffULL));
    }

    core::EvaluationOptions options;
    options.peer_sample =
        env.peer_sample > 0 ? env.peer_sample : std::size_t{400};
    options.threads = env.threads;
    const auto errors =
        core::evaluate_estimates(system.engine(), stats::EmpiricalCdf{values},
                                 options);
    summaries.push_back({errors.max_err, errors.avg_err,
                         static_cast<double>(rounds), total_s,
                         bench::peak_rss_mb()});
  }
  bench::print_header("highN_nodes", {"RAM_Errm", "RAM_Erra", "rounds",
                                      "total_s", "peak_rss_mb"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bench::print_row(std::to_string(sizes[i]), summaries[i]);
  }
  bench::report_metric("peak_rss_mb", bench::peak_rss_mb());
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  bench::open_report("fig11_scalability", env);
  bench::print_banner("Figure 11: influence of the system size", env);

  constexpr std::size_t kInstances = 3;
  std::vector<std::size_t> sizes{100, 316, 1000, 3162, 10000, 31623, 100000};
  std::erase_if(sizes, [&](std::size_t n) { return n > 5 * env.n; });

  const bool compare = env.threads > 1;
  std::vector<std::string> columns{"CPU_Errm", "RAM_Errm", "CPU_Erra",
                                   "RAM_Erra", "wall_s"};
  if (compare) {
    columns.push_back("serial_s");
    columns.push_back("speedup");
  }
  bench::print_header("nodes", columns);
  for (std::size_t n : sizes) {
    bench::BenchEnv sized = env;
    sized.n = n;
    const RowResult row = run_row(sized, n, env.seed, kInstances);
    std::vector<double> values{row.errm[0], row.errm[1], row.erra[0],
                               row.erra[1], row.wall_s};
    bool match = true;
    if (compare) {
      bench::BenchEnv serial = sized;
      serial.threads = 0;
      const RowResult base = run_row(serial, n, env.seed, kInstances);
      for (int i = 0; i < 2; ++i) {
        match = match && row.errm[i] == base.errm[i] &&
                row.erra[i] == base.erra[i];
      }
      values.push_back(base.wall_s);
      values.push_back(base.wall_s / row.wall_s);
    }
    std::string label = std::to_string(n);
    if (compare) label += match ? " match" : " MISMATCH";
    bench::print_row(label, values);
  }
  if (const char* high_n = std::getenv("ADAM2_BENCH_HIGHN");
      high_n != nullptr && *high_n != '\0') {
    run_high_n_sweep(env, std::strtoull(high_n, nullptr, 10));
  }
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
