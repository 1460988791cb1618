#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "alloc_count.hpp"
#include "host/exchange.hpp"
#include "host/snapshot.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "wire/messages.hpp"

namespace perfbench {
namespace {

// Calls per probe. Batched probes (lookups, picks, round starts) time the
// whole batch as one span; the others time every call.
constexpr std::size_t kLookups = 200000;
constexpr std::size_t kPicks = 100000;
constexpr std::size_t kKnownValues = 5000;
constexpr std::size_t kRoundStarts = 20000;
constexpr std::size_t kInterpolations = 2000;
constexpr std::size_t kExchanges = 2000;
constexpr std::size_t kInstanceStarts = 16;

// Results of probed calls are folded into this sink so the optimiser keeps
// the calls.
volatile std::uint64_t g_sink = 0;

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

template <typename Fn>
double LayerTrace::span(std::uint32_t name, std::uint64_t calls, Fn&& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  const std::int64_t duration = ns_between(begin, end);
  spans_.push_back(
      Span{name, probes_, ns_between(origin_, begin), duration, calls});
  return static_cast<double>(duration) * 1e-9;
}

std::uint32_t LayerTrace::span_id(const std::string& name) {
  for (std::size_t i = 0; i < span_names_.size(); ++i) {
    if (span_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  span_names_.push_back(name);
  return static_cast<std::uint32_t>(span_names_.size() - 1);
}

std::optional<double> LayerTrace::mean_ns(std::uint32_t name) const {
  double total = 0.0;
  std::uint64_t calls = 0;
  for (std::size_t i = probe_first_span_; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += static_cast<double>(spans_[i].duration_ns);
    calls += spans_[i].calls;
  }
  if (calls == 0) return std::nullopt;
  return total / static_cast<double>(calls);
}

void LayerTrace::add_sample(const std::string& name,
                            std::optional<double> value,
                            const std::string& unit) {
  auto series = std::find_if(samples_.begin(), samples_.end(),
                             [&](const Series& s) { return s.name == name; });
  if (series == samples_.end()) {
    series = samples_.insert(samples_.end(), Series{name, unit, {}});
  }
  if (value) series->values.push_back(*value);
}

void LayerTrace::set_exact(const std::string& name, double value,
                           const std::string& unit) {
  for (Metric& metric : exact_) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  exact_.push_back(Metric{name, value, unit});
}

void LayerTrace::measured_round(const ProbeSite& site) {
  sim::CycleEngine& engine = site.system->engine();
  const ProcessTimes before = process_times();
  set_alloc_counting(true);
  const std::uint64_t allocs_before = alloc_count();
  const Clock::time_point begin = Clock::now();
  engine.run_round();
  const double wall = seconds_since(begin);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  set_alloc_counting(false);
  const ProcessTimes after = process_times();

  add_sample("sim.round_s", wall, "s");
  add_sample("sim.cpu_util",
             (after.cpu_s - before.cpu_s) /
                 (wall * static_cast<double>(site.workers)),
             "frac");
  add_sample("mem.allocs_per_round", static_cast<double>(allocs), "count");
  add_sample("mem.minor_faults_per_round",
             static_cast<double>(after.minor_faults - before.minor_faults),
             "count");
  last_round_s_ = wall;
}

void LayerTrace::probe(const ProbeSite& site) {
  core::Adam2System& system = *site.system;
  const sim::CycleEngine& engine = system.engine();
  const host::Overlay& overlay = system.engine().overlay();
  probe_first_span_ = spans_.size();
  // A private stream: probing never draws from the measured run's engine or
  // node streams.
  rng::Rng rng(site.seed ^ (0x9e3779b97f4a7c15ULL * (probes_ + 1)));
  rng::Rng pick_rng = rng.split(1);
  const std::vector<host::NodeId> ids(engine.live_ids().begin(),
                                      engine.live_ids().end());
  const double live = static_cast<double>(ids.size());
  const auto random_live = [&] { return ids[rng.below(ids.size())]; };
  const double rss_bytes = current_rss_mb() * 1024.0 * 1024.0;
  std::uint64_t sink = 0;

  const std::uint32_t save_id = span_id("snapshot.save");
  std::vector<std::byte> snapshot;
  span(save_id, 1, [&] { snapshot = engine.save_snapshot(); });
  const double state_bytes_per_node =
      static_cast<double>(snapshot.size()) / live;
  const std::uint64_t digest_before = host::snapshot::fnv1a(snapshot);

  // host: registry reads, in random id order over every id ever issued.
  std::vector<host::NodeId> lookups(kLookups);
  for (host::NodeId& id : lookups) id = rng.below(engine.nodes_ever());
  const std::uint32_t lookup_id = span_id("registry.lookup");
  span(lookup_id, lookups.size(), [&] {
    for (host::NodeId id : lookups) {
      if (engine.is_live(id)) {
        sink += static_cast<std::uint64_t>(engine.node(id).attribute);
      }
    }
  });

  // sim: overlay reads.
  std::vector<host::NodeId> picks(kPicks);
  for (host::NodeId& id : picks) id = random_live();
  const std::uint32_t pick_id = span_id("overlay.pick");
  span(pick_id, picks.size(), [&] {
    for (host::NodeId id : picks) {
      if (const auto target = overlay.pick_gossip_target(id, pick_rng)) {
        sink += *target;
      }
    }
  });
  const std::size_t known = std::min(kKnownValues, picks.size());
  const std::uint32_t known_id = span_id("overlay.known_values");
  span(known_id, known, [&] {
    for (std::size_t i = 0; i < known; ++i) {
      sink += overlay.known_attribute_values(picks[i], engine).size();
    }
  });

  // core + stats: instance load and interpolation of the peers' points (the
  // completed estimate, else the scripted instance in flight).
  const std::vector<std::size_t> sample =
      rng.sample_indices(ids.size(), std::min(kRoundStarts, ids.size()));
  double active = 0.0;
  const std::uint32_t interpolate_id = span_id("stats.interpolate");
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const core::Adam2Agent& agent = system.agent_of(ids[sample[i]]);
    active += static_cast<double>(agent.active_instance_count());
    if (i >= kInterpolations) continue;
    std::span<const stats::CdfPoint> points;
    double lo = 0.0;
    double hi = 0.0;
    if (agent.estimate()) {
      points = agent.estimate()->points;
      lo = agent.estimate()->min_value;
      hi = agent.estimate()->max_value;
    } else if (const core::InstanceSlot* slot =
                   site.instance ? agent.instance(*site.instance) : nullptr) {
      points = slot->points();
      lo = slot->min_value;
      hi = slot->max_value;
    } else {
      continue;
    }
    span(interpolate_id, 1, [&] {
      sink += stats::interpolate_with_extremes(points, lo, hi).knots().size();
    });
  }

  // The calls below change state, so they run on a copy: a two-node system
  // of the same configuration (serial: the snapshot layout is shared) into
  // which the snapshot is restored.
  core::SystemConfig copy_config = site.config;
  copy_config.engine_threads = 0;
  core::Adam2System copy(copy_config, std::vector<stats::Value>(2, 1),
                         site.churn_source);
  sim::CycleEngine& copy_engine = copy.engine();
  host::Overlay& copy_overlay = copy_engine.overlay();
  const std::uint32_t restore_id = span_id("snapshot.restore");
  span(restore_id, 1, [&] { copy_engine.restore_snapshot(snapshot); });

  // core: round start on the sampled agents, in live order.
  const std::uint32_t round_start_id = span_id("protocol.round_start");
  span(round_start_id, sample.size(), [&] {
    for (std::size_t idx : sample) {
      host::AgentContext ctx = copy_engine.context_for(ids[idx]);
      copy_engine.agent(ids[idx]).on_round_start(ctx);
    }
  });

  // sim: one overlay maintenance pass.
  const std::uint32_t maintain_id = span_id("overlay.maintain");
  span(maintain_id, 1, [&] {
    copy_overlay.maintain(copy_engine, copy_engine.rng());
  });

  // core, wire, host: gossip exchanges stage by stage. Every sampled
  // initiator runs every stage it reaches; fates are resolved for timing
  // only (a dropped leg is still handed on), so the stage samples do not
  // depend on the fault plan.
  const host::Conduit conduit(copy_engine.fault_injector().plan());
  host::TrafficStats counters;
  std::vector<std::byte> mangled;  // Corrupted-payload buffer.
  const std::uint32_t make_id = span_id("protocol.make_request");
  const std::uint32_t parse_id = span_id("wire.parse");
  const std::uint32_t resolve_id = span_id("conduit.resolve");
  const std::uint32_t handle_request_id = span_id("protocol.handle_request");
  const std::uint32_t handle_response_id =
      span_id("protocol.handle_response");
  const std::size_t exchanges = std::min(kExchanges, ids.size());
  double exchange_s = 0.0;
  double request_bytes = 0.0;
  std::size_t requests = 0;
  for (std::size_t i = 0; i < exchanges; ++i) {
    const host::NodeId id = random_live();
    const auto target = copy_overlay.pick_gossip_target(id, pick_rng);
    host::NodeAgent& initiator = copy_engine.agent(id);
    host::AgentContext ictx = copy_engine.context_for(id);
    std::span<const std::byte> request;
    exchange_s +=
        span(make_id, 1, [&] { request = initiator.make_request(ictx); });
    if (request.empty()) continue;
    if (!target || *target == id || !copy_engine.is_live(*target)) continue;
    ++requests;
    request_bytes += static_cast<double>(request.size());
    span(parse_id, 1,
         [&] { sink += wire::Adam2MessageView::parse(request).size(); });
    rng::Rng fault_stream = copy_engine.node(id).fault_rng;
    host::Conduit::Leg leg;
    leg.from = id;
    leg.to = *target;
    leg.round = copy_engine.round();
    leg.fault_stream = &fault_stream;
    leg.partition_check = true;
    exchange_s += span(resolve_id, 1, [&] {
      sink += conduit.resolve(leg, request, mangled, counters).copies;
    });
    host::AgentContext rctx = copy_engine.context_for(*target);
    std::span<const std::byte> response;
    exchange_s += span(handle_request_id, 1, [&] {
      response = copy_engine.agent(*target).handle_request(rctx, request);
    });
    if (response.empty()) continue;
    leg.from = *target;
    leg.to = id;
    leg.partition_check = false;
    exchange_s += span(resolve_id, 1, [&] {
      sink += conduit.resolve(leg, response, mangled, counters).copies;
    });
    exchange_s += span(handle_response_id, 1,
                       [&] { initiator.handle_response(ictx, response); });
  }

  // core: instance starts on random peers.
  const std::uint32_t start_id = span_id("protocol.start_instance");
  for (std::size_t i = 0; i < kInstanceStarts; ++i) {
    const host::NodeId id = random_live();
    core::Adam2Agent& agent = copy.agent_of(id);
    host::AgentContext ctx = copy_engine.context_for(id);
    span(start_id, 1, [&] { sink += agent.start_instance(ctx).seq; });
  }

  // host: registry write path (kill + spawn with bootstrap), 1% of peers.
  const std::size_t replaced = std::max<std::size_t>(1, ids.size() / 100);
  const std::uint32_t replace_id = span_id("registry.replace");
  span(replace_id, replaced, [&] { copy_engine.churn_nodes(replaced); });
  g_sink = g_sink + sink;

  // The live state must be as the probe found it. The first snapshot is
  // released before the second is taken, so peak memory does not grow.
  if (site.write_live) system.engine().churn_nodes(1);
  snapshot = {};
  if (host::snapshot::fnv1a(engine.save_snapshot()) != digest_before) {
    intact_ = false;
  }

  // Per-probe samples.
  const auto scaled = [](std::optional<double> ns, double factor) {
    return ns ? std::optional<double>(*ns * factor) : std::nullopt;
  };
  const double maintain_ns = mean_ns(maintain_id).value_or(0.0);
  add_sample("overlay.maintain_s", maintain_ns * 1e-9, "s");
  add_sample("overlay.maintain_ns_per_node", maintain_ns / live, "ns");
  add_sample("overlay.pick_ns", mean_ns(pick_id), "ns");
  add_sample("overlay.known_values_ns", mean_ns(known_id), "ns");
  add_sample("registry.lookup_ns", mean_ns(lookup_id), "ns");
  add_sample("registry.replace_ns", mean_ns(replace_id), "ns");
  add_sample("protocol.round_start_ns", mean_ns(round_start_id), "ns");
  add_sample("protocol.start_instance_us", scaled(mean_ns(start_id), 1e-3),
             "us");
  add_sample("protocol.make_request_ns", mean_ns(make_id), "ns");
  add_sample("protocol.handle_request_ns", mean_ns(handle_request_id), "ns");
  add_sample("protocol.handle_response_ns", mean_ns(handle_response_id),
             "ns");
  add_sample("protocol.request_bytes",
             requests == 0 ? std::nullopt
                           : std::optional<double>(
                                 request_bytes / static_cast<double>(requests)),
             "B");
  add_sample("protocol.active_instances",
             active / static_cast<double>(sample.size()), "count");
  add_sample("wire.parse_ns", mean_ns(parse_id), "ns");
  add_sample("stats.interpolate_ns", mean_ns(interpolate_id), "ns");
  add_sample("conduit.resolve_ns", mean_ns(resolve_id), "ns");
  add_sample("snapshot.save_s", scaled(mean_ns(save_id), 1e-9), "s");
  add_sample("snapshot.restore_s", scaled(mean_ns(restore_id), 1e-9), "s");
  add_sample("mem.state_bytes_per_node", state_bytes_per_node, "B");
  add_sample("mem.rss_over_state", rss_bytes / live / state_bytes_per_node,
             "ratio");

  // Coverage: the probed per-call costs scaled to one full round (every
  // live peer starts its round, picks a target and initiates one exchange;
  // one maintenance pass; the workload's churn), over the measured round.
  // With several workers the round overlaps work, so coverage can exceed 1.
  const double per_exchange_ns =
      exchange_s * 1e9 / static_cast<double>(std::max<std::size_t>(exchanges, 1));
  const double explained_s =
      maintain_ns * 1e-9 +
      live *
          (mean_ns(round_start_id).value_or(0.0) +
           mean_ns(pick_id).value_or(0.0) + per_exchange_ns) *
          1e-9 +
      site.churn_per_round * mean_ns(replace_id).value_or(0.0) * 1e-9;
  if (last_round_s_ > 0.0) {
    add_sample("sim.coverage", explained_s / last_round_s_, "frac");
  }
  ++probes_;
}

std::vector<Metric> LayerTrace::metrics() const {
  std::vector<Metric> out;
  out.reserve(samples_.size() + exact_.size());
  for (const Series& series : samples_) {
    out.push_back(Metric{series.name, median(series.values), series.unit});
  }
  out.insert(out.end(), exact_.begin(), exact_.end());
  return out;
}

bool LayerTrace::write_spans(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name\tprobe\tstart_ns\tduration_ns\tcalls\n");
  for (const Span& s : spans_) {
    std::fprintf(file, "%s\t%u\t%lld\t%lld\t%llu\n",
                 span_names_[s.name].c_str(), s.probe,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.duration_ns),
                 static_cast<unsigned long long>(s.calls));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
