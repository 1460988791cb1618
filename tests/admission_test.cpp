// The exchange's admission gate, core::admissible (DESIGN.md §8.3): one
// case per rejection class, the cases it must accept, proof that a rejected
// payload leaves the agent untouched on both exchange legs, and a
// differential run against the two gates it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/instance_store.hpp"
#include "core/point_ops.hpp"
#include "core/system.hpp"
#include "rng/rng.hpp"
#include "wire/messages.hpp"

namespace adam2::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

SystemConfig gate_system() {
  SystemConfig config;
  config.engine.seed = 3;
  config.protocol.lambda = 10;
  config.protocol.instance_ttl = 30;
  config.protocol.verification_points = 4;
  config.overlay = OverlayKind::kStaticRandom;
  config.overlay_degree = 8;
  return config;
}

std::vector<stats::Value> iota_values(std::size_t n) {
  std::vector<stats::Value> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<stats::Value>(i);
  return values;
}

std::vector<std::byte> message_with(const wire::InstancePayload& payload,
                                    wire::MessageType type) {
  wire::Adam2Message message;
  message.type = type;
  message.instances = {payload};
  return message.encode();
}

/// The first payload of the parsed `bytes`.
wire::InstancePayloadView first_payload(const std::vector<std::byte>& bytes) {
  return *wire::Adam2MessageView::parse(bytes).begin();
}

std::vector<std::byte> saved_state(const Adam2Agent& agent) {
  wire::Writer out;
  EXPECT_TRUE(agent.save_state(out));
  return out.take();
}

// The gates admissible() replaced, as they were: protocol.cpp's
// plausible() and InstanceSlot::mergeable_with(view).
bool reference_plausible(const wire::InstancePayloadView& payload,
                         std::uint16_t max_ttl) {
  if (payload.ttl > max_ttl) return false;
  if (!std::isfinite(payload.weight) || payload.weight < 0.0 ||
      payload.weight > 1.0) {
    return false;
  }
  if (!std::isfinite(payload.min_value) || !std::isfinite(payload.max_value) ||
      payload.min_value > payload.max_value) {
    return false;
  }
  bool multi_value = false;
  for (const stats::CdfPoint p : payload.points) {
    if (std::isnan(p.t) || !std::isfinite(p.f) || p.f < 0.0) return false;
    if (std::isinf(p.t)) multi_value = true;
  }
  if (!multi_value) {
    for (const stats::CdfPoint p : payload.points) {
      if (p.f > 1.0) return false;
    }
  }
  for (const stats::CdfPoint p : payload.verification) {
    if (std::isnan(p.t) || !std::isfinite(p.f) || p.f < 0.0) return false;
    if (!multi_value && p.f > 1.0) return false;
  }
  return true;
}

bool reference_verdict(const wire::InstancePayloadView& payload,
                       std::uint16_t max_ttl, const InstanceSlot* held) {
  return reference_plausible(payload, max_ttl) &&
         (held == nullptr ||
          (payload.id == held->id &&
           point_ops::same_thresholds(held->points(), payload.points) &&
           point_ops::same_thresholds(held->verification(),
                                      payload.verification)));
}

struct Mutation {
  std::string what;
  std::function<void(wire::InstancePayload&)> apply;
};

/// Every way a payload is rejected whether or not the instance is held.
std::vector<Mutation> hostile_payloads(std::uint16_t max_ttl) {
  using P = wire::InstancePayload;
  return {
      {"ttl above instance_ttl",
       [=](P& p) { p.ttl = static_cast<std::uint16_t>(max_ttl + 1); }},
      {"NaN weight", [](P& p) { p.weight = kNaN; }},
      {"negative weight", [](P& p) { p.weight = -0.25; }},
      {"weight above 1", [](P& p) { p.weight = 1.5; }},
      {"infinite min", [](P& p) { p.min_value = -kInf; }},
      {"infinite max", [](P& p) { p.max_value = kInf; }},
      {"NaN max", [](P& p) { p.max_value = kNaN; }},
      {"min above max", [](P& p) { p.min_value = p.max_value + 1.0; }},
      {"NaN H threshold", [](P& p) { p.points[3].t = kNaN; }},
      {"NaN V threshold", [](P& p) { p.verification[1].t = kNaN; }},
      {"NaN f", [](P& p) { p.points[2].f = kNaN; }},
      {"+inf f", [](P& p) { p.points[2].f = kInf; }},
      {"-inf f", [](P& p) { p.verification[0].f = -kInf; }},
      {"negative f in H", [](P& p) { p.points[5].f = -0.125; }},
      {"negative f in V", [](P& p) { p.verification[3].f = -0.125; }},
      {"f above 1 in H", [](P& p) { p.points[4].f = 1.5; }},
      {"f above 1 in V", [](P& p) { p.verification[2].f = 1.5; }},
      {"f above 1 with an infinite threshold in V only",
       [](P& p) {
         p.verification.back().t = kInf;
         p.points[0].f = 1.5;
       }},
  };
}

/// Rejected only because the held slot cannot take them: merging would
/// read or write out of bounds, or average misaligned thresholds.
std::vector<Mutation> mismatched_payloads() {
  using P = wire::InstancePayload;
  return {
      {"H has one point fewer", [](P& p) { p.points.pop_back(); }},
      {"V has one point fewer", [](P& p) { p.verification.pop_back(); }},
      {"V has one point more",
       [](P& p) { p.verification.push_back(p.verification.back()); }},
      {"one differing threshold",
       [](P& p) { p.points[1].t = std::nextafter(p.points[1].t, kInf); }},
  };
}

/// An honest payload of a live instance, the responder that holds it, and
/// the responder's state before and after it joined.
class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : system_(gate_system(), iota_values(32)),
        config_(gate_system().protocol),
        ctx_(system_.engine().context_for(1)) {
    auto actx = system_.engine().context_for(0);
    (void)system_.agent_of(0).start_instance(actx);
    const std::span<const std::byte> request =
        system_.agent_of(0).make_request(actx);
    honest_ = wire::Adam2Message::decode(request).instances.at(0);
    Adam2Agent& responder = system_.agent_of(1);
    unheld_state_ = saved_state(responder);
    (void)responder.handle_request(ctx_, message_with(honest_, kRequest));
    held_state_ = saved_state(responder);
    EXPECT_EQ(responder.active_instance_count(), 1u);
  }

  static constexpr wire::MessageType kRequest =
      wire::MessageType::kAdam2Request;
  static constexpr wire::MessageType kResponse =
      wire::MessageType::kAdam2Response;

  [[nodiscard]] std::uint16_t max_ttl() const { return config_.instance_ttl; }

  /// Restores the responder from `state`, hands it `payload` on one leg
  /// and returns its state afterwards.
  std::vector<std::byte> after(const std::vector<std::byte>& state,
                               const wire::InstancePayload& payload,
                               wire::MessageType leg) {
    Adam2Agent agent(config_);
    wire::Reader in(state);
    EXPECT_TRUE(agent.restore_state(in));
    const std::vector<std::byte> bytes = message_with(payload, leg);
    if (leg == kRequest) {
      (void)agent.handle_request(ctx_, bytes);
    } else {
      agent.handle_response(ctx_, bytes);
    }
    return saved_state(agent);
  }

  /// A rejected payload must leave the responder as it was. A request
  /// always advances the epoch counters, so on that leg the reference is
  /// the same request with the payload marked as an empty set, which the
  /// agent skips before reading anything but its id.
  void expect_untouched(const std::vector<std::byte>& state,
                        const wire::InstancePayload& payload,
                        const std::string& what) {
    wire::InstancePayload skipped = payload;
    skipped.flags = wire::kFlagEmptySet;
    EXPECT_EQ(after(state, payload, kRequest),
              after(state, skipped, kRequest))
        << what << " (request leg)";
    EXPECT_EQ(after(state, payload, kResponse), state)
        << what << " (response leg)";
  }

  Adam2System system_;
  Adam2Config config_;
  host::AgentContext ctx_;
  wire::InstancePayload honest_;
  std::vector<std::byte> unheld_state_;
  std::vector<std::byte> held_state_;
};

/// A store holding the honest payload's instance, for direct gate calls.
struct HeldSlot {
  explicit HeldSlot(const wire::InstancePayload& payload) {
    const std::vector<std::byte> bytes =
        message_with(payload, wire::MessageType::kAdam2Request);
    slot = &store.join(first_payload(bytes),
                       [](double t) { return t >= 7.0 ? 1.0 : 0.0; }, 7.0,
                       7.0);
  }
  InstanceStore store;
  InstanceSlot* slot = nullptr;
};

TEST_F(AdmissionTest, HonestPayloadsChangeTheResponder) {
  // The control for every rejection below: the same paths do act on an
  // honest payload.
  ASSERT_EQ(honest_.verification.size(), 4u);
  EXPECT_NE(held_state_, unheld_state_);
  wire::InstancePayload skipped = honest_;
  skipped.flags = wire::kFlagEmptySet;
  EXPECT_NE(after(held_state_, honest_, kRequest),
            after(held_state_, skipped, kRequest));
  EXPECT_NE(after(held_state_, honest_, kResponse), held_state_);
  EXPECT_NE(after(unheld_state_, honest_, kResponse), unheld_state_);
  const HeldSlot held(honest_);
  const std::vector<std::byte> bytes = message_with(honest_, kRequest);
  EXPECT_TRUE(admissible(first_payload(bytes), max_ttl(), nullptr));
  EXPECT_TRUE(admissible(first_payload(bytes), max_ttl(), held.slot));
}

TEST_F(AdmissionTest, EachHostileClassIsRejectedBeforeAnyWrite) {
  const HeldSlot held(honest_);
  for (const Mutation& m : hostile_payloads(max_ttl())) {
    wire::InstancePayload payload = honest_;
    m.apply(payload);
    const std::vector<std::byte> bytes = message_with(payload, kRequest);
    EXPECT_FALSE(admissible(first_payload(bytes), max_ttl(), nullptr))
        << m.what;
    EXPECT_FALSE(admissible(first_payload(bytes), max_ttl(), held.slot))
        << m.what;
    expect_untouched(unheld_state_, payload, m.what + ", not held");
    expect_untouched(held_state_, payload, m.what + ", held");
  }
}

TEST_F(AdmissionTest, HeldSlotRejectsMismatchedSeries) {
  const HeldSlot held(honest_);
  for (const Mutation& m : mismatched_payloads()) {
    wire::InstancePayload payload = honest_;
    m.apply(payload);
    const std::vector<std::byte> bytes = message_with(payload, kRequest);
    EXPECT_TRUE(admissible(first_payload(bytes), max_ttl(), nullptr))
        << m.what << " is a well-formed first contact";
    EXPECT_FALSE(admissible(first_payload(bytes), max_ttl(), held.slot))
        << m.what;
    expect_untouched(held_state_, payload, m.what);
  }
  wire::InstancePayload other = honest_;
  other.id.seq += 1;
  const std::vector<std::byte> bytes = message_with(other, kRequest);
  EXPECT_FALSE(admissible(first_payload(bytes), max_ttl(), held.slot))
      << "another instance's payload";
}

TEST(AdmissionGateTest, AcceptsWhatHonestPeersSend) {
  wire::InstancePayload base;
  base.id = {4, 2};
  base.ttl = 30;
  base.weight = 0.5;
  base.min_value = 0.0;
  base.max_value = 9.0;
  for (int i = 0; i < 5; ++i) {
    base.points.push_back({static_cast<double>(i), 0.2 * i});
  }
  base.verification = {{0.5, 0.1}, {2.5, 0.5}};
  const auto verdict = [](const wire::InstancePayload& p,
                          const InstanceSlot* held) {
    const std::vector<std::byte> bytes =
        message_with(p, wire::MessageType::kAdam2Request);
    return admissible(first_payload(bytes), 30, held);
  };
  ASSERT_TRUE(verdict(base, nullptr));

  // Multi-value nodes (§IV) count values: with the size sentinel as an H
  // threshold, f above 1 is honest in H and V alike.
  for (const double sentinel : {kInf, -kInf}) {
    wire::InstancePayload multi = base;
    multi.points.back() = {sentinel, 40.0};
    multi.points[1].f = 3.0;
    multi.verification[0].f = 2.0;
    EXPECT_TRUE(verdict(multi, nullptr)) << sentinel;
  }

  wire::InstancePayload negative_zero = base;
  negative_zero.points[0].f = -0.0;
  negative_zero.verification[0].f = -0.0;
  EXPECT_TRUE(verdict(negative_zero, nullptr));
  EXPECT_EQ(std::signbit(negative_zero.points[0].f), true);

  // Thresholds compare as numbers: -0.0 from the wire matches a held 0.0.
  HeldSlot held(base);
  ASSERT_EQ(held.slot->points()[0].t, 0.0);
  ASSERT_FALSE(std::signbit(held.slot->points()[0].t));
  wire::InstancePayload signed_zero = base;
  signed_zero.points[0] = {-0.0, 0.5};
  EXPECT_TRUE(verdict(signed_zero, held.slot));
  const std::vector<std::byte> bytes =
      message_with(signed_zero, wire::MessageType::kAdam2Request);
  const double before = held.slot->points()[0].f;
  held.slot->merge(first_payload(bytes));
  EXPECT_EQ(held.slot->points()[0].f, (before + 0.5) / 2.0);
}

/// wire_test's in-place mutator: flips 1-8 random bytes. (Its truncating
/// and extending mutants never pass the framing walk, so they never reach
/// the gate.)
std::vector<std::byte> mutate(std::vector<std::byte> bytes, rng::Rng& rng) {
  for (std::uint64_t i = 1 + rng.below(8); i > 0; --i) {
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::byte>(1 + rng.below(255));
  }
  return bytes;
}

TEST_F(AdmissionTest, VerdictsEqualTheReplacedGatesOnEveryParsedMutant) {
  const HeldSlot held(honest_);
  const std::vector<std::byte> live = message_with(honest_, kRequest);
  rng::Rng rng(0xad1a55);
  std::size_t parsed = 0;
  std::size_t admitted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::vector<std::byte> mutant = mutate(live, rng);
    std::optional<wire::Adam2MessageView> view;
    try {
      view = wire::Adam2MessageView::parse(mutant);
    } catch (const wire::DecodeError&) {
      continue;
    }
    ++parsed;
    for (const wire::InstancePayloadView& payload : *view) {
      for (const InstanceSlot* slot : {held.slot, (InstanceSlot*)nullptr}) {
        const bool verdict = admissible(payload, max_ttl(), slot);
        ASSERT_EQ(verdict, reference_verdict(payload, max_ttl(), slot))
            << "mutant " << i << (slot != nullptr ? ", held" : ", not held");
        ++(verdict ? admitted : refused);
      }
    }
  }
  EXPECT_GE(parsed, 8'000u);
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace adam2::core
