#include "baselines/equidepth.hpp"

#include <algorithm>
#include <cassert>

#include "core/evaluation.hpp"
#include "stats/summary.hpp"

namespace adam2::baselines {
namespace {

/// The running phase `id` in `phases`, or phases.end().
template <typename Phases>
auto find_phase(Phases& phases, wire::InstanceId id) {
  return std::find_if(phases.begin(), phases.end(),
                      [id](const auto& phase) { return phase.id == id; });
}

}  // namespace

EquiDepthAgent::EquiDepthAgent(EquiDepthConfig config) : config_(config) {
  assert(config_.bins >= 2);
  assert(config_.phase_ttl >= 1);
}

bool EquiDepthAgent::eligible(const host::AgentContext& ctx,
                              const wire::EquiDepthMessage& msg) const {
  return msg.start_round >= ctx.birth_round &&
         !finalized_.contains(msg.phase);
}

void EquiDepthAgent::on_round_start(host::AgentContext& ctx) {
  // A phase with ttl 0 finishes now; the others burn one round.
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->ttl > 0) {
      --it->ttl;
      ++it;
      continue;
    }
    finalize(std::move(*it));
    it = active_.erase(it);
  }

  if (config_.restart_every_r > 0.0) {
    const double np =
        n_estimate_ > 0.0 ? n_estimate_ : config_.initial_n_estimate;
    if (np >= 1.0 &&
        ctx.rng.bernoulli(1.0 / (np * config_.restart_every_r))) {
      start_phase(ctx);
    }
  }
}

wire::InstanceId EquiDepthAgent::start_phase(host::AgentContext& ctx) {
  Phase phase;
  phase.id = wire::InstanceId{ctx.self, next_seq_++};
  phase.start_round = ctx.round;
  phase.ttl = config_.phase_ttl;
  phase.synopsis = {{static_cast<double>(ctx.attribute), 1.0}};
  const wire::InstanceId id = phase.id;
  active_.push_back(std::move(phase));
  return id;
}

wire::EquiDepthMessage EquiDepthAgent::message_for(const Phase& phase,
                                                   wire::MessageType type,
                                                   host::NodeId self) const {
  wire::EquiDepthMessage msg;
  msg.type = type;
  msg.sender = self;
  msg.phase = phase.id;
  msg.start_round = phase.start_round;
  msg.ttl = phase.ttl;
  msg.synopsis = phase.synopsis;
  return msg;
}

std::span<const std::byte> EquiDepthAgent::make_request(
    host::AgentContext& ctx) {
  if (active_.empty()) return {};
  // One phase per message keeps the format simple; concurrent phases take
  // turns. (The paper's comparison runs one phase at a time.) The oldest
  // active phase gossips.
  wire_scratch_ = message_for(active_.front(),
                              wire::MessageType::kEquiDepthRequest, ctx.self)
                      .encode();
  return wire_scratch_;
}

EquiDepthAgent::Phase EquiDepthAgent::join_phase(
    const host::AgentContext& ctx, const wire::EquiDepthMessage& msg) const {
  Phase phase;
  phase.id = msg.phase;
  phase.start_round = msg.start_round;
  phase.ttl = msg.ttl;
  phase.synopsis = {{static_cast<double>(ctx.attribute), 1.0}};
  return phase;
}

void EquiDepthAgent::merge(Phase& phase,
                           const std::vector<stats::WeightedValue>& other) {
  // Push-pull averaging of the two synopses as distributions: each side is
  // renormalised to unit weight, halved, unioned, and recompressed to the
  // bin budget. Samples this node already absorbed re-enter through the
  // received synopsis (the duplication of §VII-A), and every exchange loses
  // detail to the equi-depth compression — together these floor the accuracy
  // at a few percent regardless of how long the phase runs.
  double mine = 0.0;
  for (const stats::WeightedValue& s : phase.synopsis) mine += s.weight;
  double theirs = 0.0;
  for (const stats::WeightedValue& s : other) theirs += s.weight;
  if (theirs <= 0.0) return;
  if (mine <= 0.0) {
    phase.synopsis = other;
    return;
  }
  std::vector<stats::WeightedValue> merged;
  merged.reserve(phase.synopsis.size() + other.size());
  for (const stats::WeightedValue& s : phase.synopsis) {
    merged.push_back({s.value, s.weight / (2.0 * mine)});
  }
  for (const stats::WeightedValue& s : other) {
    merged.push_back({s.value, s.weight / (2.0 * theirs)});
  }
  phase.synopsis = stats::compress_equi_depth(std::move(merged), config_.bins);
}

std::span<const std::byte> EquiDepthAgent::handle_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  wire::EquiDepthMessage incoming;
  try {
    incoming = wire::EquiDepthMessage::decode(request);
  } catch (const wire::DecodeError&) {
    return {};
  }
  if (!eligible(ctx, incoming)) return {};

  const auto it = find_phase(active_, incoming.phase);
  if (it == active_.end()) {
    Phase joined = join_phase(ctx, incoming);
    auto reply = message_for(joined, wire::MessageType::kEquiDepthResponse,
                             ctx.self);
    merge(joined, incoming.synopsis);
    active_.push_back(std::move(joined));
    wire_scratch_ = reply.encode();
    return wire_scratch_;
  }
  auto reply =
      message_for(*it, wire::MessageType::kEquiDepthResponse, ctx.self);
  merge(*it, incoming.synopsis);
  wire_scratch_ = reply.encode();
  return wire_scratch_;
}

void EquiDepthAgent::handle_response(host::AgentContext& ctx,
                                     std::span<const std::byte> response) {
  wire::EquiDepthMessage incoming;
  try {
    incoming = wire::EquiDepthMessage::decode(response);
  } catch (const wire::DecodeError&) {
    return;
  }
  if (!eligible(ctx, incoming)) return;
  const auto it = find_phase(active_, incoming.phase);
  if (it == active_.end()) {
    Phase joined = join_phase(ctx, incoming);
    merge(joined, incoming.synopsis);
    active_.push_back(std::move(joined));
    return;
  }
  merge(*it, incoming.synopsis);
}

void EquiDepthAgent::finalize(Phase&& phase) {
  finalized_.insert(phase.id);

  EquiDepthEstimate result;
  result.phase = phase.id;
  result.completed_round = phase.start_round + config_.phase_ttl;
  result.synopsis = std::move(phase.synopsis);
  if (!result.synopsis.empty()) {
    result.cdf = stats::centroids_to_cdf(result.synopsis);
  }
  estimate_ = std::move(result);
}

std::vector<stats::WeightedValue> EquiDepthAgent::phase_synopsis(
    wire::InstanceId id) const {
  const auto it = find_phase(active_, id);
  return it == active_.end() ? std::vector<stats::WeightedValue>{}
                             : it->synopsis;
}

std::vector<std::byte> EquiDepthAgent::make_bootstrap_request(
    host::AgentContext& ctx) {
  return wire::BootstrapRequest{ctx.self}.encode();
}

std::vector<std::byte> EquiDepthAgent::handle_bootstrap_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  try {
    (void)wire::BootstrapRequest::decode(request);
  } catch (const wire::DecodeError&) {
    return {};
  }
  wire::BootstrapResponse response;
  response.sender = ctx.self;
  response.n_estimate = n_estimate_;
  if (estimate_ && !estimate_->cdf.empty()) {
    const auto knots = estimate_->cdf.knots();
    response.cdf_knots.assign(knots.begin(), knots.end());
    response.min_value = knots.front().t;
    response.max_value = knots.back().t;
  }
  return response.encode();
}

bool EquiDepthAgent::handle_bootstrap_response(
    host::AgentContext& ctx, std::span<const std::byte> response) {
  wire::BootstrapResponse incoming;
  try {
    incoming = wire::BootstrapResponse::decode(response);
  } catch (const wire::DecodeError&) {
    return false;
  }
  if (incoming.n_estimate > 0.0) n_estimate_ = incoming.n_estimate;
  if (incoming.cdf_knots.empty()) return false;
  EquiDepthEstimate inherited;
  inherited.completed_round = ctx.round;
  inherited.cdf = stats::PiecewiseLinearCdf{std::move(incoming.cdf_knots)};
  inherited.inherited = true;
  estimate_ = std::move(inherited);
  return true;
}

/// The EquiDepth evaluators' peer-sampler salt; Adam2's evaluators use
/// pick_peers' default. Changing either moves every sampled row of the
/// figures that print them.
constexpr std::uint64_t kPeerSampleSalt = 0xE7A10001ULL;

EquiDepthPopulationErrors evaluate_equidepth(sim::CycleEngine& engine,
                                             const stats::EmpiricalCdf& truth,
                                             std::size_t peer_sample,
                                             bool include_inherited,
                                             bool missing_counts_as_one) {
  EquiDepthPopulationErrors out;
  const stats::DiscreteErrorEvaluator errors_against_truth(truth);
  stats::RunningStat avg_stat;
  for (host::NodeId id :
       core::pick_peers(engine, peer_sample, kPeerSampleSalt)) {
    const auto* agent = dynamic_cast<const EquiDepthAgent*>(&engine.agent(id));
    const EquiDepthEstimate* est =
        (agent != nullptr && agent->estimate()) ? &*agent->estimate() : nullptr;
    if (est != nullptr && est->inherited && !include_inherited) est = nullptr;
    if (est == nullptr || est->cdf.empty()) {
      ++out.missing;
      if (!missing_counts_as_one) continue;
      out.max_err = 1.0;
      avg_stat.add(1.0);
      continue;
    }
    const stats::ErrorPair errors = errors_against_truth(est->cdf);
    out.max_err = std::max(out.max_err, errors.max_err);
    avg_stat.add(errors.avg_err);
  }
  out.peers = avg_stat.count();
  out.avg_err = avg_stat.mean();
  return out;
}

EquiDepthInstantErrors evaluate_equidepth_phase(
    sim::CycleEngine& engine, wire::InstanceId phase,
    const stats::EmpiricalCdf& truth, std::size_t peer_sample,
    std::optional<host::Round> born_by) {
  EquiDepthInstantErrors out;
  const stats::DiscreteErrorEvaluator errors_against_truth(truth);
  stats::RunningStat entire_avg;
  stats::RunningStat bins_avg;
  for (host::NodeId id :
       core::pick_peers(engine, peer_sample, kPeerSampleSalt)) {
    if (born_by && engine.node(id).birth_round > *born_by) continue;
    const auto* agent = dynamic_cast<const EquiDepthAgent*>(&engine.agent(id));
    const auto synopsis =
        agent != nullptr ? agent->phase_synopsis(phase)
                         : std::vector<stats::WeightedValue>{};
    if (synopsis.empty()) {
      // Not reached yet: maximum error, as in the Adam2 evaluation.
      out.entire.max_err = std::max(out.entire.max_err, 1.0);
      entire_avg.add(1.0);
      out.at_bins.max_err = std::max(out.at_bins.max_err, 1.0);
      bins_avg.add(1.0);
      continue;
    }
    const auto cdf = stats::centroids_to_cdf(synopsis);
    const stats::ErrorPair entire = errors_against_truth(cdf);
    out.entire.max_err = std::max(out.entire.max_err, entire.max_err);
    entire_avg.add(entire.avg_err);
    const auto knots = cdf.knots();
    const stats::ErrorPair at_bins =
        stats::point_errors(truth, {knots.begin(), knots.size()});
    out.at_bins.max_err = std::max(out.at_bins.max_err, at_bins.max_err);
    bins_avg.add(at_bins.avg_err);
  }
  out.peers = entire_avg.count();
  out.entire.avg_err = entire_avg.mean();
  out.at_bins.avg_err = bins_avg.mean();
  return out;
}

}  // namespace adam2::baselines
