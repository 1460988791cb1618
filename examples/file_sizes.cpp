// Multi-value-per-node extension (§IV, "Multiple Attribute Values per
// Node"): estimating the distribution of *file sizes* across the system,
// where each node contributes its whole set of file sizes rather than one
// attribute value.
//
// The estimated CDF is over the union of all files; nodes with more files
// contribute proportionally more mass (f_i = avg_i / avg).
#include <cmath>
#include <cstdio>

#include "adam2.hpp"

using namespace adam2;

int main() {
  constexpr std::size_t kNodes = 1500;
  rng::Rng rng(13);

  // Each node stores between 1 and ~60 files; sizes follow a lognormal in
  // KiB with a heavy tail (media files).
  std::vector<std::vector<stats::Value>> file_sets;
  std::vector<stats::Value> all_files;
  file_sets.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t count = 1 + rng.below(60);
    std::vector<stats::Value> files;
    files.reserve(count);
    for (std::size_t f = 0; f < count; ++f) {
      const double kib = rng.bernoulli(0.1) ? rng.lognormal(12.0, 1.0)   // media
                                            : rng.lognormal(5.0, 1.5);   // docs
      files.push_back(static_cast<stats::Value>(std::llround(kib)) + 1);
    }
    all_files.insert(all_files.end(), files.begin(), files.end());
    file_sets.push_back(std::move(files));
  }

  core::Adam2Config protocol;
  protocol.lambda = 50;
  protocol.instance_ttl = 30;
  protocol.heuristic = core::SelectionHeuristic::kLCut;

  // Build the engine with one MultiValueAdam2Agent per node.
  std::vector<stats::Value> engine_attributes;
  engine_attributes.reserve(kNodes);
  for (const auto& files : file_sets) engine_attributes.push_back(files.front());
  auto shared_sets =
      std::make_shared<std::vector<std::vector<stats::Value>>>(std::move(file_sets));
  sim::EngineConfig engine_config;
  engine_config.seed = 29;
  sim::CycleEngine engine(
      engine_config, engine_attributes,
      core::make_overlay(core::OverlayKind::kCyclon, 20),
      [shared_sets, protocol](const host::AgentContext& ctx) {
        return std::make_unique<core::MultiValueAdam2Agent>(
            protocol, (*shared_sets)[static_cast<std::size_t>(ctx.self)]);
      },
      nullptr);

  // Two instances: bootstrap, then LCut refinement over the union range.
  for (int i = 0; i < 2; ++i) {
    const host::NodeId initiator = engine.random_live_node();
    auto ctx = engine.context_for(initiator);
    dynamic_cast<core::Adam2Agent&>(engine.agent(initiator)).start_instance(ctx);
    engine.run_rounds(protocol.instance_ttl + 1u);
  }

  const stats::EmpiricalCdf truth{all_files};
  const host::NodeId observer = engine.live_ids().front();
  const auto& estimate =
      *dynamic_cast<core::Adam2Agent&>(engine.agent(observer)).estimate();

  std::printf("file population: %zu files on %zu nodes\n", all_files.size(),
              kNodes);
  std::printf("\n%14s %14s %14s\n", "size (KiB)", "estimated F", "true F");
  for (double size : {16.0, 64.0, 256.0, 1024.0, 16384.0, 262144.0}) {
    std::printf("%14.0f %14.4f %14.4f\n", size, estimate.cdf(size),
                truth(size));
  }
  std::printf("\nmedian file size: estimated %.0f KiB, true %lld KiB\n",
              estimate.cdf.inverse(0.5),
              static_cast<long long>(truth.quantile(0.5)));
  const auto errors = stats::discrete_errors(truth, estimate.cdf);
  std::printf("errors vs truth: Errm=%.4f Erra=%.6f\n", errors.max_err,
              errors.avg_err);
  return 0;
}
