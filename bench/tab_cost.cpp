// §VII-I cost evaluation: the in-text cost table.
//
// Reproduces the paper's numbers:
//   * gossip message size ~800 B at lambda = 50;
//   * ~40 kB sent (and ~40 kB received) per node per instance (25 rounds,
//     ~2 messages sent per round);
//   * ~120 kB per node for an accurate CDF (3 instances), independent of N;
//   * at a 1 s gossip period: ~75 s per CDF at ~1.6 kB/s upstream;
//   * EquiDepth costs are very similar;
//   * random sampling needs 1,000-10,000 messages per node — an order of
//     magnitude more.
#include <cstdio>

#include "baselines/sampling.hpp"
#include <string>

#include "common.hpp"
#include "core/evaluation.hpp"
#include "wire/messages.hpp"

using namespace adam2;

namespace {

struct CostRow {
  double message_bytes;
  double sent_kb_per_node;
  double received_kb_per_node;
  double messages_per_node;
};

CostRow adam2_cost(const bench::BenchEnv& env, std::size_t n,
                   std::size_t instances) {
  const auto values =
      bench::population(data::Attribute::kRamMb, n, env.seed);
  bench::BenchEnv sized = env;
  sized.n = n;
  core::SystemConfig config = bench::default_system(sized);
  core::Adam2System system(config, values);
  for (std::size_t i = 0; i < instances; ++i) system.run_instance();
  const auto& agg =
      system.engine().total_traffic().on(host::Channel::kAggregation);
  CostRow row;
  row.message_bytes = static_cast<double>(agg.bytes_sent) /
                      static_cast<double>(agg.messages_sent);
  row.sent_kb_per_node =
      static_cast<double>(agg.bytes_sent) / static_cast<double>(n) / 1024.0;
  row.received_kb_per_node = static_cast<double>(agg.bytes_received) /
                             static_cast<double>(n) / 1024.0;
  row.messages_per_node =
      static_cast<double>(agg.messages_sent) / static_cast<double>(n);
  return row;
}

CostRow equidepth_cost(const bench::BenchEnv& env, std::size_t n,
                       std::size_t phases) {
  const auto values = bench::population(data::Attribute::kRamMb, n, env.seed);
  baselines::EquiDepthConfig config;
  config.bins = 50;
  sim::EngineConfig engine_config;
  engine_config.seed = env.seed;
  // Run the phases through the shared driver, then read the traffic off a
  // fresh engine run (the driver owns its engine, so rebuild here).
  sim::CycleEngine engine(
      engine_config, values, core::make_overlay(core::OverlayKind::kCyclon, 20),
      [config](const host::AgentContext&) {
        return std::make_unique<baselines::EquiDepthAgent>(config);
      },
      nullptr);
  for (std::size_t i = 0; i < phases; ++i) {
    const auto initiator = engine.random_live_node();
    auto ctx = engine.context_for(initiator);
    dynamic_cast<baselines::EquiDepthAgent&>(engine.agent(initiator))
        .start_phase(ctx);
    engine.run_rounds(config.phase_ttl + 1u);
  }
  const auto& agg = engine.total_traffic().on(host::Channel::kAggregation);
  CostRow row;
  row.message_bytes = static_cast<double>(agg.bytes_sent) /
                      static_cast<double>(agg.messages_sent);
  row.sent_kb_per_node =
      static_cast<double>(agg.bytes_sent) / static_cast<double>(n) / 1024.0;
  row.received_kb_per_node = static_cast<double>(agg.bytes_received) /
                             static_cast<double>(n) / 1024.0;
  row.messages_per_node =
      static_cast<double>(agg.messages_sent) / static_cast<double>(n);
  return row;
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env(10000);
  bench::open_report("tab_cost", env);
  bench::print_banner("Section VII-I: cost evaluation", env);

  // Message size directly from the wire format.
  wire::Adam2Message message;
  wire::InstancePayload payload;
  for (int i = 0; i < 50; ++i) payload.points.push_back({1.0 * i, 0.5});
  message.instances = {payload};
  std::printf("\nencoded gossip message size at lambda=50: %zu bytes "
              "(paper: ~800 B)\n",
              message.encoded_size());

  std::printf("\n## Adam2 traffic per node (lambda=50, 25-round instances)\n");
  bench::print_header("config", {"msg_bytes", "sent_kB", "recv_kB",
                                 "msgs_sent"});
  for (std::size_t instances : {1u, 3u}) {
    const CostRow row = adam2_cost(env, env.n, instances);
    bench::print_row("N=" + std::to_string(env.n) + " x" +
                         std::to_string(instances) + "inst",
                     {row.message_bytes, row.sent_kb_per_node,
                      row.received_kb_per_node, row.messages_per_node});
  }
  // Independence of system size.
  for (std::size_t n : {env.n / 4, env.n}) {
    const CostRow row = adam2_cost(env, n, 1);
    bench::print_row("N=" + std::to_string(n) + " x1inst",
                     {row.message_bytes, row.sent_kb_per_node,
                      row.received_kb_per_node, row.messages_per_node});
  }

  std::printf("\n## EquiDepth traffic per node (50 bins, 25-round phases)\n");
  bench::print_header("config", {"msg_bytes", "sent_kB", "recv_kB",
                                 "msgs_sent"});
  const CostRow ed = equidepth_cost(env, env.n, 3);
  bench::print_row("N=" + std::to_string(env.n) + " x3phase",
                   {ed.message_bytes, ed.sent_kb_per_node,
                    ed.received_kb_per_node, ed.messages_per_node});

  std::printf("\n## Random sampling cost to match Adam2 (random walks)\n");
  bench::print_header("samples", {"messages", "approx_kB", "RAM_Erra"});
  const auto values = bench::population(data::Attribute::kRamMb, env.n, env.seed);
  rng::Rng rng(env.seed);
  for (std::size_t samples : {1000u, 10000u}) {
    baselines::SamplingConfig config;
    config.sample_size = samples;
    const auto result = baselines::estimate_by_sampling(values, config, rng);
    bench::print_row(std::to_string(samples),
                     {static_cast<double>(result.messages),
                      static_cast<double>(result.bytes_estimate) / 1024.0,
                      result.errors.avg_err});
  }

  std::printf("\n## Derived deployment figures (1 s gossip period)\n");
  const CostRow three = adam2_cost(env, env.n, 3);
  std::printf("time to accurate CDF: ~%d s; upstream bandwidth: %.2f kB/s\n",
              3 * 25, three.sent_kb_per_node * 1024.0 / (3 * 25) / 1024.0);
  const std::string json = bench::emit_json();
  if (!json.empty()) std::printf("# wrote %s\n", json.c_str());
  return 0;
}
