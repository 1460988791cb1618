#include "core/protocol.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "core/combine.hpp"
#include "core/point_selection.hpp"
#include "host/hints.hpp"
#include "stats/error_metrics.hpp"

namespace adam2::core {
namespace {

/// Encode scratch of the calling thread, shared by every agent it runs
/// (DESIGN.md §7.1). A request view stays valid until this thread's next
/// make_request, a reply view until its next handle_request; requests and
/// replies use separate buffers, so a reply never overwrites the request it
/// answers. Each buffer grows once to the thread's largest message, then
/// exchanges encode allocation-free — and an idle agent holds no buffer.
struct ExchangeScratch {
  wire::Writer request;
  wire::Writer reply;
};

ExchangeScratch& exchange_scratch() {
  thread_local ExchangeScratch scratch;
  return scratch;
}

}  // namespace

Adam2Agent::Adam2Agent(Adam2Config config)
    : config_(config), lambda_(config.lambda) {
  assert(config_.lambda >= 1);
  assert(config_.instance_ttl >= 1);
}

ContributionFn Adam2Agent::contribution_fn(
    const host::AgentContext& ctx) const {
  const double attribute = static_cast<double>(ctx.attribute);
  return [attribute](double t) { return attribute <= t ? 1.0 : 0.0; };
}

std::pair<double, double> Adam2Agent::local_extremes(
    const host::AgentContext& ctx) const {
  const double attribute = static_cast<double>(ctx.attribute);
  return {attribute, attribute};
}

bool Adam2Agent::eligible(const host::AgentContext& ctx,
                          std::uint32_t start_round, wire::InstanceId id,
                          bool active) const {
  // Nodes ignore instances that started before they entered the system
  // (§VII-G), so a partial contribution never distorts a running average —
  // and never rejoin an instance this node already finalised (stragglers'
  // messages can arrive after local termination). A live slot is never a
  // tombstone, so only a first contact or a straggler scans the ring.
  return start_round >= ctx.birth_round &&
         (active || !finalized_.contains(id));
}

void Adam2Agent::on_round_start(host::AgentContext& ctx) {
  // TTL bookkeeping first. An instance with ttl == 0 has already gossiped
  // through its full ttl's worth of rounds and terminates now; the others
  // burn one round. (Finalising before decrementing gives an instance with
  // ttl = T exactly T exchange rounds.)
  std::vector<wire::InstanceId> finished;
  for (InstanceSlot& slot : store_) {
    if (slot.ttl == 0) {
      finished.push_back(slot.id);
      continue;
    }
    --slot.ttl;
  }
  for (wire::InstanceId id : finished) finalize(id);

  // Probabilistic instance creation: Ps = 1 / (Np * R) per round (§IV).
  if (config_.restart_every_r > 0.0) {
    const double np =
        n_estimate_ > 0.0 ? n_estimate_ : config_.initial_n_estimate;
    if (np >= 1.0) {
      const double ps = 1.0 / (np * config_.restart_every_r);
      if (ctx.rng.bernoulli(ps)) start_instance(ctx);
    }
  }
}

std::vector<double> Adam2Agent::choose_thresholds(host::AgentContext& ctx) {
  if (estimate_ && !estimate_->cdf.empty()) {
    return select_points(estimate_->cdf, lambda_, config_.heuristic);
  }
  // Bootstrap (§VII-B): no prior estimate.
  std::vector<stats::Value> known =
      ctx.overlay.known_attribute_values(ctx.self, ctx.host);
  known.push_back(ctx.attribute);
  if (config_.bootstrap == BootstrapPoints::kNeighbourBased) {
    return neighbour_thresholds(known, lambda_, ctx.rng);
  }
  const auto [lo_it, hi_it] = std::minmax_element(known.begin(), known.end());
  return uniform_thresholds(static_cast<double>(*lo_it),
                            static_cast<double>(*hi_it), lambda_);
}

std::vector<double> Adam2Agent::choose_verification(host::AgentContext& ctx,
                                                    double lo, double hi) {
  if (config_.verification_points == 0) return {};
  if (config_.verification_mode == VerificationMode::kBisection && estimate_ &&
      !estimate_->cdf.empty()) {
    return bisection_thresholds(estimate_->cdf, config_.verification_points);
  }
  // Uniform verification thresholds between the known extremes (§VI). Use a
  // private stream so verification never perturbs the threshold choice.
  (void)ctx;
  return uniform_thresholds(lo, hi, config_.verification_points);
}

wire::InstanceId Adam2Agent::start_instance(host::AgentContext& ctx) {
  const wire::InstanceId id{ctx.self, next_seq_++};
  std::vector<double> thresholds = choose_thresholds(ctx);

  double lo = 0.0;
  double hi = 0.0;
  if (estimate_ && !estimate_->cdf.empty()) {
    lo = estimate_->min_value;
    hi = estimate_->max_value;
  } else if (!thresholds.empty()) {
    lo = thresholds.front();
    hi = thresholds.back();
  }
  std::vector<double> verification = choose_verification(ctx, lo, hi);

  augment_thresholds(thresholds);
  const auto [local_min, local_max] = local_extremes(ctx);
  store_.start(id, ctx.round, config_.instance_ttl, thresholds, verification,
               contribution_fn(ctx), local_min, local_max);
  return id;
}

std::span<const std::byte> Adam2Agent::make_request(host::AgentContext& ctx) {
  if (store_.empty()) return {};
  // Exact-size reservation: skips the doubling-growth copies while the
  // scratch warms up to the steady-state message size (one cheap pass over
  // the slot headers; no effect once capacity has been seen).
  std::size_t encoded = 1 + 8 + 4;
  for (const InstanceSlot& slot : store_) {
    encoded += wire::kInstancePayloadFixedSize +
               16 * (slot.points().size() + slot.verification().size());
  }
  wire::Writer& scratch = exchange_scratch().request;
  scratch.reserve(encoded);
  wire::Adam2MessageBuilder builder(scratch, wire::MessageType::kAdam2Request,
                                    ctx.self);
  // Payloads travel in join/start order: wire bytes must be a function of
  // protocol history, not of any hash-bucket layout.
  for (const InstanceSlot& slot : store_) builder.add(slot.ref());
  return builder.finish();
}

bool Adam2Agent::prefetch(std::size_t level) const {
  if (level == 0) {
    host::touch_bytes(this, sizeof *this);
    return true;
  }
  for (const InstanceSlot& slot : store_) {
    if (level == 1) {
      host::touch_bytes(&slot, sizeof slot);
    } else if (level == 2) {
      host::touch_bytes(slot.points().data(), slot.points().size_bytes());
      host::touch_bytes(slot.verification().data(),
                        slot.verification().size_bytes());
    }
  }
  return !store_.empty();
}

std::span<const std::byte> Adam2Agent::handle_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  // The reply is encoded into the thread's reply scratch while the request
  // is iterated in place; the two must not alias (they never do: the
  // request lives in a request scratch or in a substrate-owned envelope).
  // An empty request holds no bytes to alias, and its data() may be null
  // like that of a thread's still-empty scratch.
  wire::Writer& scratch = exchange_scratch().reply;
  assert(request.empty() || request.data() != scratch.view().data());

  std::optional<wire::Adam2MessageView> parsed;
  try {
    parsed = wire::Adam2MessageView::parse(request);
  } catch (const wire::DecodeError&) {
    return {};  // Corrupt or foreign message: drop it, as a deployment would.
  }
  const wire::Adam2MessageView& incoming = *parsed;

  wire::Adam2MessageBuilder reply(scratch, wire::MessageType::kAdam2Response,
                                  ctx.self);

  // Every active instance the request mentions — in any payload, even ones
  // the flag/eligibility skips below ignore — is marked with the current
  // epoch so the "unmentioned instances" pass stays linear in |active_|.
  const std::uint64_t epoch = ++request_epoch_;

  for (const wire::InstancePayloadView& payload : incoming) {
    InstanceSlot* slot = store_.find(payload.id);
    if (slot != nullptr) slot->touched_epoch = epoch;
    if ((payload.flags & wire::kFlagEmptySet) != 0) continue;
    if (!eligible(ctx, payload.start_round, payload.id, slot != nullptr)) {
      continue;
    }
    // Framing was checked by the parse; semantics here, before any write.
    if (!admissible(payload, config_.instance_ttl, slot)) continue;
    if (slot != nullptr) {
      // Symmetric exchange: reply with the pre-merge state, then average.
      reply.add(slot->ref());
      slot->merge(payload);
      continue;
    }
    // First contact with this instance: join it. (The join may grow the
    // store; `slot` is dead past this point.)
    const auto [local_min, local_max] = local_extremes(ctx);
    InstanceSlot& joined =
        store_.join(payload, contribution_fn(ctx), local_min, local_max);
    if (config_.join_policy == JoinPolicy::kMassConserving) {
      // Reply with the initial values so both sides end at the same average:
      // total mass grows by exactly this node's contribution.
      reply.add(joined.ref());
    } else {
      // Figure-1 literal: reply with an empty set, which the requester will
      // ignore. Not mass conserving; kept for the ablation bench.
      reply.add_empty_set(joined.ref());
    }
    joined.merge(payload);
    joined.touched_epoch = epoch;
  }

  // Instances the requester did not mention spread through responses too —
  // again in join/start order, for the same replay-stability reason as
  // make_request.
  for (const InstanceSlot& slot : store_) {
    if (slot.touched_epoch != epoch) reply.add(slot.ref());
  }

  if (reply.count() == 0) return {};
  return reply.finish();
}

void Adam2Agent::handle_response(host::AgentContext& ctx,
                                 std::span<const std::byte> response) {
  std::optional<wire::Adam2MessageView> parsed;
  try {
    parsed = wire::Adam2MessageView::parse(response);
  } catch (const wire::DecodeError&) {
    return;
  }
  for (const wire::InstancePayloadView& payload : *parsed) {
    if ((payload.flags & wire::kFlagEmptySet) != 0) continue;
    InstanceSlot* slot = store_.find(payload.id);
    if (!eligible(ctx, payload.start_round, payload.id, slot != nullptr)) {
      continue;
    }
    if (!admissible(payload, config_.instance_ttl, slot)) continue;
    if (slot != nullptr) {
      slot->merge(payload);
      continue;
    }
    const auto [local_min, local_max] = local_extremes(ctx);
    InstanceSlot& joined =
        store_.join(payload, contribution_fn(ctx), local_min, local_max);
    if (config_.join_policy == JoinPolicy::kPaperLiteral) {
      joined.merge(payload);
    }
    // Mass-conserving requester join: initialise only — the responder cannot
    // learn our initial values within this exchange, so averaging here would
    // create mass out of nothing.
  }
}

void Adam2Agent::finalize(wire::InstanceId id) {
  // Finalisation leaves the hot path: copy what the estimate needs out of
  // the slot, recycle the slot, and only then record the tombstone (the
  // invariant on finalized_).
  const InstanceSlot& slot = *store_.find(id);
  std::vector<stats::CdfPoint> points(slot.points().begin(),
                                      slot.points().end());
  std::vector<stats::CdfPoint> verification(slot.verification().begin(),
                                            slot.verification().end());
  Estimate result;
  result.instance = id;
  result.completed_round = slot.start_round + config_.instance_ttl;
  result.min_value = slot.min_value;
  result.max_value = slot.max_value;
  const double weight = slot.weight;
  store_.erase(id);
  finalized_.insert(id);

  finalize_points(points, verification);
  result.points = points;
  // make_monotone() repairs tiny gossip-noise inversions.
  result.cdf = stats::interpolate_with_extremes(points, result.min_value,
                                                result.max_value)
                   .make_monotone();
  if (weight > 1e-12) {
    result.n_estimate = 1.0 / weight;
    n_estimate_ = result.n_estimate;
  }
  if (!verification.empty()) {
    result.self_assessment = stats::estimation_errors(result.cdf, verification);
    if (config_.adaptive) apply_adaptive_tuning(*result.self_assessment);
  }
  if (config_.combine_last_instances > 1) {
    history_.push_back(result);
    if (history_.size() > config_.combine_last_instances) {
      history_.erase(history_.begin());
    }
    estimate_ = combine_estimates(history_);
  } else {
    estimate_ = std::move(result);
  }
  ++completed_;
}

void Adam2Agent::apply_adaptive_tuning(const stats::ErrorPair& assessment) {
  const AdaptiveTuning& tuning = *config_.adaptive;
  const double est = config_.verification_mode == VerificationMode::kBisection
                         ? assessment.max_err
                         : assessment.avg_err;
  double next = static_cast<double>(lambda_);
  if (est > tuning.target_avg_error) {
    next *= kAdaptiveGrowFactor;
  } else if (est < kAdaptiveSlack * tuning.target_avg_error) {
    next *= kAdaptiveShrinkFactor;
  }
  lambda_ = std::clamp(static_cast<std::size_t>(std::llround(next)),
                       tuning.min_lambda, tuning.max_lambda);
}

std::vector<std::byte> Adam2Agent::make_bootstrap_request(
    host::AgentContext& ctx) {
  return wire::BootstrapRequest{ctx.self}.encode();
}

std::vector<std::byte> Adam2Agent::handle_bootstrap_request(
    host::AgentContext& ctx, std::span<const std::byte> request) {
  try {
    (void)wire::BootstrapRequest::decode(request);
  } catch (const wire::DecodeError&) {
    return {};
  }
  wire::BootstrapResponse response;
  response.sender = ctx.self;
  response.n_estimate = n_estimate_;
  if (estimate_) {
    response.min_value = estimate_->min_value;
    response.max_value = estimate_->max_value;
    response.cdf_knots.assign(estimate_->cdf.knots().begin(),
                              estimate_->cdf.knots().end());
  }
  return response.encode();
}

bool Adam2Agent::handle_bootstrap_response(host::AgentContext& ctx,
                                           std::span<const std::byte> response) {
  wire::BootstrapResponse incoming;
  try {
    incoming = wire::BootstrapResponse::decode(response);
  } catch (const wire::DecodeError&) {
    return false;
  }
  // Same semantic hardening as gossip payloads: framing validated, values
  // not. A corrupted-but-decodable bootstrap must not seed a NaN estimate.
  if (std::isfinite(incoming.n_estimate) && incoming.n_estimate > 0.0) {
    n_estimate_ = incoming.n_estimate;
  }
  if (incoming.cdf_knots.empty()) return false;  // Neighbour had nothing yet.
  if (!std::isfinite(incoming.min_value) || !std::isfinite(incoming.max_value)) {
    return false;
  }
  for (const stats::CdfPoint& k : incoming.cdf_knots) {
    if (!std::isfinite(k.t) || !std::isfinite(k.f)) return false;
  }

  // Joining nodes receive an initial CDF approximation from a neighbour
  // (§VII-G); it is marked inherited so evaluations can distinguish it.
  Estimate inherited;
  inherited.completed_round = ctx.round;
  inherited.min_value = incoming.min_value;
  inherited.max_value = incoming.max_value;
  inherited.cdf = stats::PiecewiseLinearCdf{std::move(incoming.cdf_knots)};
  const auto knots = inherited.cdf.knots();
  if (knots.size() > 2) {
    inherited.points.assign(knots.begin() + 1, knots.end() - 1);
  }
  inherited.n_estimate = incoming.n_estimate;
  inherited.inherited = true;
  estimate_ = std::move(inherited);
  return true;
}

// ------------------------------------------------- host::snapshot (§12) ----

namespace {

/// Canonical-form flag byte: anything but 0/1 is rejected, so every accepted
/// blob re-encodes to exactly the bytes it was restored from.
bool read_flag(wire::Reader& in, bool& value) {
  const std::uint8_t raw = in.u8();
  if (raw > 1) return false;
  value = raw != 0;
  return true;
}

/// Bit-level point equality. operator== is the wrong tool here: it calls
/// NaN != NaN and -0.0 == 0.0, while the canonical re-encode contract
/// compares encoded bytes.
bool bit_identical(std::span<const stats::CdfPoint> a,
                   std::span<const stats::CdfPoint> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(stats::CdfPoint)) == 0);
}

void write_estimate(wire::Writer& out, const Estimate& e) {
  out.u64(e.instance.initiator);
  out.u32(e.instance.seq);
  out.u32(e.completed_round);
  wire::encode_points(out, e.cdf.knots());
  wire::encode_points(out, e.points);
  out.f64(e.min_value);
  out.f64(e.max_value);
  out.f64(e.n_estimate);
  out.u8(e.self_assessment ? 1 : 0);
  if (e.self_assessment) {
    out.f64(e.self_assessment->max_err);
    out.f64(e.self_assessment->avg_err);
  }
  out.u8(e.inherited ? 1 : 0);
}

bool read_estimate(wire::Reader& in, Estimate& e) {
  e.instance.initiator = in.u64();
  e.instance.seq = in.u32();
  e.completed_round = in.u32();
  const std::vector<stats::CdfPoint> knots = wire::decode_points(in);
  e.cdf = stats::PiecewiseLinearCdf{knots};
  // The cdf constructor sorts, merges and clamps. Knots it would alter
  // cannot have come from save_state (the constructor is idempotent on its
  // own output) and would re-encode differently — reject as non-canonical
  // instead of accepting a silently different state.
  if (!bit_identical(e.cdf.knots(), knots)) return false;
  e.points = wire::decode_points(in);
  e.min_value = in.f64();
  e.max_value = in.f64();
  e.n_estimate = in.f64();
  bool have_assessment = false;
  if (!read_flag(in, have_assessment)) return false;
  if (have_assessment) {
    stats::ErrorPair pair;
    pair.max_err = in.f64();
    pair.avg_err = in.f64();
    e.self_assessment = pair;
  } else {
    e.self_assessment.reset();
  }
  bool inherited = false;
  if (!read_flag(in, inherited)) return false;
  e.inherited = inherited;
  return true;
}

// Minimum encoded sizes, used as length-prefix allocation guards.
constexpr std::size_t kMinSlotBytes = 8 + 4 + 4 + 2 + 1 + 3 * 8 + 8 + 4 + 4;
constexpr std::size_t kMinEstimateBytes = 8 + 4 + 4 + 4 + 4 + 3 * 8 + 1 + 1;

}  // namespace

bool Adam2Agent::save_state(wire::Writer& out) const {
  // Config echo — validated on restore, never restored (see protocol.hpp).
  out.u64(config_.lambda);
  out.u16(config_.instance_ttl);
  out.u64(config_.verification_points);
  out.u64(config_.combine_last_instances);

  out.u64(lambda_);
  out.length(store_.size());
  for (const InstanceSlot& slot : store_) {
    out.u64(slot.id.initiator);
    out.u32(slot.id.seq);
    out.u32(slot.start_round);
    out.u16(slot.ttl);
    out.u8(slot.flags);
    out.f64(slot.weight);
    out.f64(slot.min_value);
    out.f64(slot.max_value);
    out.u64(slot.touched_epoch);
    wire::encode_points(out, slot.points());
    wire::encode_points(out, slot.verification());
  }
  out.u8(estimate_ ? 1 : 0);
  if (estimate_) write_estimate(out, *estimate_);
  out.length(history_.size());
  for (const Estimate& e : history_) write_estimate(out, e);
  out.length(finalized_.size());
  finalized_.for_each_oldest_first([&out](wire::InstanceId id) {
    out.u64(id.initiator);
    out.u32(id.seq);
  });
  out.f64(n_estimate_);
  out.u32(next_seq_);
  out.u64(completed_);
  out.u64(request_epoch_);
  return true;
}

bool Adam2Agent::restore_state(wire::Reader& in) {
  if (in.u64() != config_.lambda || in.u16() != config_.instance_ttl ||
      in.u64() != config_.verification_points ||
      in.u64() != config_.combine_last_instances) {
    return false;  // Factory and checkpoint disagree on the protocol config.
  }

  // An honest live lambda is either the configured one or a value the
  // adaptive clamp produced; anything else (notably a corrupt huge count
  // that select_points would try to allocate) is rejected.
  const std::uint64_t lambda = in.u64();
  if (config_.adaptive) {
    if (lambda < config_.adaptive->min_lambda ||
        lambda > config_.adaptive->max_lambda) {
      return false;
    }
  } else if (lambda != config_.lambda) {
    return false;
  }
  lambda_ = static_cast<std::size_t>(lambda);

  store_.clear();
  estimate_.reset();
  history_.clear();
  finalized_.clear();

  const std::size_t instances = in.length(kMinSlotBytes);
  for (std::size_t i = 0; i < instances; ++i) {
    const wire::InstanceId id{in.u64(), in.u32()};
    const std::uint32_t start_round = in.u32();
    const std::uint16_t ttl = in.u16();
    const std::uint8_t flags = in.u8();
    const double weight = in.f64();
    const double min_value = in.f64();
    const double max_value = in.f64();
    const std::uint64_t touched_epoch = in.u64();
    const std::vector<stats::CdfPoint> points = wire::decode_points(in);
    const std::vector<stats::CdfPoint> verification = wire::decode_points(in);
    if (store_.find(id) != nullptr) return false;  // Duplicate instance id.
    store_.restore(id, start_round, ttl, flags, weight, min_value, max_value,
                   touched_epoch, points, verification);
  }

  bool have_estimate = false;
  if (!read_flag(in, have_estimate)) return false;
  if (have_estimate) {
    Estimate e;
    if (!read_estimate(in, e)) return false;
    estimate_ = std::move(e);
  }

  const std::size_t history = in.length(kMinEstimateBytes);
  const bool history_fits = config_.combine_last_instances > 1
                                ? history <= config_.combine_last_instances
                                : history == 0;
  if (!history_fits) return false;
  for (std::size_t i = 0; i < history; ++i) {
    Estimate e;
    if (!read_estimate(in, e)) return false;
    history_.push_back(std::move(e));
  }

  const std::size_t finalized = in.length(12);
  if (finalized > TombstoneRing::kCapacity) return false;
  for (std::size_t i = 0; i < finalized; ++i) {
    const wire::InstanceId id{in.u64(), in.u32()};
    if (finalized_.contains(id)) return false;  // Duplicate.
    // A live instance cannot also be finalised (eligible() relies on it).
    if (store_.find(id) != nullptr) return false;
    finalized_.insert(id);
  }

  n_estimate_ = in.f64();
  next_seq_ = in.u32();
  completed_ = in.u64();
  request_epoch_ = in.u64();
  return true;
}

}  // namespace adam2::core
