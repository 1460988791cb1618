#include "host/fault.hpp"

#include <stdexcept>

#include "wire/buffer.hpp"

namespace adam2::host {

namespace {

// Distinct stateless-derivation tags so the per-node fault stream and the
// partition assignment are decorrelated from each other and from everything
// seeded elsewhere in the system.
constexpr std::uint64_t kNodeStreamTag = 0x632be59bd9b4e019ULL;
constexpr std::uint64_t kPartitionTag = 0x2545f4914f6cdd1dULL;

}  // namespace

rng::Rng FaultInjector::node_stream(NodeId id) const noexcept {
  std::uint64_t material =
      plan_.seed ^ ((id + kNodeStreamTag) * 0x9e3779b97f4a7c15ULL);
  return rng::Rng{rng::split_mix64(material)};
}

MessageFate FaultInjector::message_fate(rng::Rng& stream) const noexcept {
  if (!plan_.message_faults()) return MessageFate::kDeliver;
  // Always three draws so the stream advances identically whatever the
  // outcome — replaying a plan with one rate changed perturbs only the
  // decisions, not the alignment of later draws.
  const bool drop = stream.bernoulli(plan_.drop_rate);
  const bool corrupt = stream.bernoulli(plan_.corrupt_rate);
  const bool duplicate = stream.bernoulli(plan_.duplicate_rate);
  if (drop) return MessageFate::kDrop;
  if (corrupt) return MessageFate::kCorrupt;
  if (duplicate) return MessageFate::kDuplicate;
  return MessageFate::kDeliver;
}

double FaultInjector::extra_delay(rng::Rng& stream) const noexcept {
  if (plan_.delay_rate <= 0.0 || plan_.max_delay <= 0.0) return 0.0;
  if (!stream.bernoulli(plan_.delay_rate)) return 0.0;
  return stream.uniform(0.0, plan_.max_delay);
}

bool FaultInjector::crashes(rng::Rng& stream) const noexcept {
  if (plan_.crash_rate <= 0.0) return false;
  return stream.bernoulli(plan_.crash_rate);
}

void restart_agent(std::unique_ptr<NodeAgent>& agent, bool warm,
                   const AgentFactory& factory,
                   const std::function<AgentContext(bool)>& context) {
  wire::Writer blob;
  const bool carry = warm && agent->save_state(blob);
  auto fresh = factory(context(carry));
  if (!fresh) throw std::runtime_error("agent factory returned null");
  if (carry) {
    wire::Reader in(blob.view());
    if (!fresh->restore_state(in)) {
      // The blob was produced by save_state moments ago; rejection means the
      // agent's save/restore pair is asymmetric — a bug, not bad input.
      throw std::runtime_error(
          "warm restart: agent rejected its own state blob");
    }
    in.expect_done();
  }
  agent = std::move(fresh);
}

std::vector<std::byte> FaultInjector::corrupt(std::span<const std::byte> bytes,
                                              rng::Rng& stream) const {
  std::vector<std::byte> out(bytes.begin(), bytes.end());
  if (out.empty()) return out;
  if (stream.bernoulli(0.5)) {
    // Truncation: cut strictly short, possibly to an empty datagram.
    out.resize(static_cast<std::size_t>(stream.below(out.size())));
  } else {
    // Byte flips: 1–4 positions XORed with a non-zero mask, so the payload
    // always differs from what was sent.
    const std::uint64_t flips = 1 + stream.below(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::size_t pos = static_cast<std::size_t>(stream.below(out.size()));
      out[pos] ^= static_cast<std::byte>(1 + stream.below(255));
    }
  }
  return out;
}

bool FaultInjector::partition_active(Round round) const noexcept {
  if (plan_.partition_count < 2) return false;
  if (round < plan_.partition_start) return false;
  if (plan_.partition_heal_after > 0 &&
      round >= plan_.partition_start + plan_.partition_heal_after) {
    return false;
  }
  return true;
}

std::size_t FaultInjector::partition_of(NodeId id) const noexcept {
  std::uint64_t material =
      plan_.seed ^ kPartitionTag ^ (id * 0x9e3779b97f4a7c15ULL);
  return static_cast<std::size_t>(rng::split_mix64(material) %
                                  plan_.partition_count);
}

bool FaultInjector::partitioned(NodeId a, NodeId b, Round round) const noexcept {
  if (!partition_active(round)) return false;
  return partition_of(a) != partition_of(b);
}

}  // namespace adam2::host
