// Traffic accounting: every encoded message a substrate transports is counted
// here, per channel, in one ledger per run, which makes the paper's cost
// evaluation (§VII-I: ~800 B messages, ~40 kB sent per instance, ~120 kB per
// node for an accurate CDF, all population means) directly measurable.
#pragma once

#include <array>
#include <cstdint>

#include "host/types.hpp"

namespace adam2::host {

/// Counters for one traffic direction pair on one channel.
struct ChannelTraffic {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;

  void add_send(std::size_t bytes) noexcept {
    ++messages_sent;
    bytes_sent += bytes;
  }
  void add_receive(std::size_t bytes) noexcept {
    ++messages_received;
    bytes_received += bytes;
  }

  ChannelTraffic& operator+=(const ChannelTraffic& other) noexcept {
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_received += other.messages_received;
    bytes_received += other.bytes_received;
    return *this;
  }
};

/// Traffic across all channels: a run's ledger, a worker's share of it, or
/// a runtime peer's batch.
struct TrafficStats {
  std::array<ChannelTraffic, kChannelCount> channels{};
  std::uint64_t failed_contacts = 0;   ///< Gossip targets found dead.
  std::uint64_t dropped_messages = 0;  ///< Lost to injected message loss.
  std::uint64_t busy_rejections = 0;   ///< Requests refused mid-exchange
                                       ///< (async atomicity, see AsyncEngine).
  // Fault-injection and transport-reliability counters (DESIGN.md §8). The
  // simulated substrates and the real transports feed the same fields, so a
  // chaos run and a deployment run report one ledger schema.
  std::uint64_t duplicated_messages = 0;   ///< Delivered twice (injected).
  std::uint64_t corrupted_messages = 0;    ///< Payload mangled in flight.
  std::uint64_t partitioned_messages = 0;  ///< Blocked by an overlay partition.
  std::uint64_t delayed_messages = 0;      ///< Given injected extra latency.
  std::uint64_t crash_restarts = 0;        ///< Node crash-restart events.
  std::uint64_t rejected_messages = 0;     ///< Undecodable frames a transport
                                           ///< discarded (truncated datagrams,
                                           ///< invalid kind bytes).

  [[nodiscard]] ChannelTraffic& on(Channel c) noexcept {
    return channels[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const ChannelTraffic& on(Channel c) const noexcept {
    return channels[static_cast<std::size_t>(c)];
  }

  /// Counts one message of `bytes` bytes on `c` as sent and received (the
  /// global view of a point-to-point transfer).
  void record_message(Channel c, std::size_t bytes) noexcept {
    on(c).add_send(bytes);
    on(c).add_receive(bytes);
  }

  /// Total bytes sent across every channel.
  [[nodiscard]] std::uint64_t total_bytes_sent() const noexcept {
    std::uint64_t total = 0;
    for (const ChannelTraffic& c : channels) total += c.bytes_sent;
    return total;
  }

  TrafficStats& operator+=(const TrafficStats& other) noexcept {
    for (std::size_t i = 0; i < kChannelCount; ++i) {
      channels[i] += other.channels[i];
    }
    failed_contacts += other.failed_contacts;
    dropped_messages += other.dropped_messages;
    busy_rejections += other.busy_rejections;
    duplicated_messages += other.duplicated_messages;
    corrupted_messages += other.corrupted_messages;
    partitioned_messages += other.partitioned_messages;
    delayed_messages += other.delayed_messages;
    crash_restarts += other.crash_restarts;
    rejected_messages += other.rejected_messages;
    return *this;
  }
};

}  // namespace adam2::host
