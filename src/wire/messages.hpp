// Wire formats for every message the protocols exchange.
//
// One gossip exchange is a request/response pair (§IV: "nodes need to
// exchange a pair of messages during each gossip round"). An Adam2 message
// carries one payload per aggregation instance the sender participates in;
// each payload holds the instance identity and TTL, the averaging weight used
// for system-size estimation, the gossiped global extremes, the lambda
// interpolation points H and the optional verification points V (§VI).
//
// With lambda = 50 points and no verification points a payload is ~850 bytes,
// matching the paper's "approximately 800 bytes" (§VII-I).
#pragma once

#include <bit>
#include <cassert>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/histogram.hpp"
#include "wire/buffer.hpp"

namespace adam2::wire {

/// Discriminates message kinds on the wire (first byte of every buffer).
enum class MessageType : std::uint8_t {
  kAdam2Request = 1,
  kAdam2Response = 2,
  kBootstrapRequest = 3,
  kBootstrapResponse = 4,
  kEquiDepthRequest = 5,
  kEquiDepthResponse = 6,
  kShuffleRequest = 7,
  kShuffleResponse = 8,
};

/// Globally unique aggregation-instance identity: the initiator's node id
/// plus the initiator-local sequence number.
struct InstanceId {
  std::uint64_t initiator = 0;
  std::uint32_t seq = 0;

  friend auto operator<=>(const InstanceId&, const InstanceId&) = default;
};

/// Payload flag bits.
inline constexpr std::uint8_t kFlagEmptySet = 0x01;  ///< Paper-literal join marker.

/// Encoded size of an instance payload's fixed part: id (12) + start_round
/// (4) + ttl (2) + flags (1) + weight/min/max (24) + the two sequence
/// length prefixes (8). Each point then adds 16 bytes. Senders use this to
/// reserve exact scratch capacity before encoding.
inline constexpr std::size_t kInstancePayloadFixedSize = 12 + 4 + 2 + 1 + 24 + 8;

/// A u32-length-prefixed point series, as messages and agent snapshots
/// carry it (one bulk copy on little-endian hosts), and its decoder, which
/// throws DecodeError on a truncated or oversized series.
void encode_points(Writer& w, std::span<const stats::CdfPoint> points);
[[nodiscard]] std::vector<stats::CdfPoint> decode_points(Reader& r);

/// Per-instance state as it travels between two peers.
struct InstancePayload {
  InstanceId id;
  std::uint32_t start_round = 0;  ///< Engine round the instance started in.
  std::uint16_t ttl = 0;          ///< Rounds left before termination.
  std::uint8_t flags = 0;
  double weight = 0.0;      ///< System-size averaging weight (initiator: 1).
  double min_value = 0.0;   ///< Gossiped global minimum (merged with min).
  double max_value = 0.0;   ///< Gossiped global maximum (merged with max).
  std::vector<stats::CdfPoint> points;        ///< H: interpolation points.
  std::vector<stats::CdfPoint> verification;  ///< V: verification points.

  friend bool operator==(const InstancePayload&, const InstancePayload&) =
      default;
};

/// Non-owning view of one instance's live state for encoding: the fixed
/// header by value, the H and V series as spans over the sender's storage
/// (a core::InstanceSlot's two vectors, or any contiguous CdfPoint run).
/// This is how agents hand their per-instance state to Adam2MessageBuilder
/// without materialising an InstancePayload copy. Valid only while the
/// referenced storage is alive and unmodified.
struct InstancePayloadRef {
  InstanceId id;
  std::uint32_t start_round = 0;
  std::uint16_t ttl = 0;
  std::uint8_t flags = 0;
  double weight = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  std::span<const stats::CdfPoint> points;
  std::span<const stats::CdfPoint> verification;
};

/// A full Adam2 gossip message (request or response). This is the *owning*
/// decoded form, kept for tests, tools, and cold paths; the exchange hot
/// path decodes with the zero-copy Adam2MessageView below instead.
struct Adam2Message {
  MessageType type = MessageType::kAdam2Request;
  std::uint64_t sender = 0;
  std::vector<InstancePayload> instances;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static Adam2Message decode(std::span<const std::byte> buffer);
  /// Exact size encode() would produce, without allocating.
  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(const Adam2Message&, const Adam2Message&) = default;
};

// CdfPoint is two packed IEEE-754 doubles — exactly the 16-byte wire record
// — so on little-endian hosts an in-memory run already has the wire layout:
// a series encodes with one bulk copy and a record decodes with one.
static_assert(sizeof(stats::CdfPoint) == 16 &&
              std::is_trivially_copyable_v<stats::CdfPoint>);

/// Zero-copy view over an encoded point sequence: `count` little-endian
/// (f64 t, f64 f) records starting at `data`. Iteration decodes on the fly;
/// nothing is materialised. The decode is inline because the exchange's
/// admission and merge loops run it once per received point.
class PointsView {
 public:
  class iterator {
   public:
    using value_type = stats::CdfPoint;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const std::byte* at) : at_(at) {}

    [[nodiscard]] stats::CdfPoint operator*() const { return load(at_); }
    iterator& operator++() {
      at_ += 16;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      at_ += 16;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const std::byte* at_ = nullptr;
  };

  PointsView() = default;
  PointsView(const std::byte* data, std::size_t count)
      : data_(data), count_(count) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Decodes record `i`. Precondition: i < size().
  [[nodiscard]] stats::CdfPoint operator[](std::size_t i) const {
    assert(i < count_);
    return load(data_ + 16 * i);
  }

  [[nodiscard]] iterator begin() const { return iterator(data_); }
  [[nodiscard]] iterator end() const { return iterator(data_ + 16 * count_); }

  /// Owning copy (cold paths and tests).
  [[nodiscard]] std::vector<stats::CdfPoint> materialize() const;

 private:
  static stats::CdfPoint load(const std::byte* at) {
    stats::CdfPoint p;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&p, at, sizeof p);
    } else {
      p = {load_f64(at), load_f64(at + 8)};
    }
    return p;
  }

  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
};

/// Zero-copy decoded instance payload: the fixed header is unpacked into
/// fields, the H and V sequences stay in the underlying buffer as
/// PointsViews. Valid only while the decoded buffer is alive.
struct InstancePayloadView {
  InstanceId id;
  std::uint32_t start_round = 0;
  std::uint16_t ttl = 0;
  std::uint8_t flags = 0;
  double weight = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  PointsView points;
  PointsView verification;

  /// Owning copy, byte-identical to what Adam2Message::decode produces.
  [[nodiscard]] InstancePayload materialize() const;
};

/// Zero-copy decode of an Adam2 gossip message. parse() validates the whole
/// buffer up front with exactly the bounds checks of Adam2Message::decode
/// (same DecodeError on the same corrupt inputs) but allocates nothing;
/// iteration then unpacks payload headers on the fly. The responder hot path
/// (Adam2Agent::handle_request) runs entirely off such views, so a
/// steady-state exchange decodes with zero heap allocations.
class Adam2MessageView {
 public:
  class iterator {
   public:
    using value_type = InstancePayloadView;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const std::byte* at, std::size_t index, std::size_t count);

    [[nodiscard]] const InstancePayloadView& operator*() const { return view_; }
    [[nodiscard]] const InstancePayloadView* operator->() const {
      return &view_;
    }
    iterator& operator++();
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    void load();

    const std::byte* at_ = nullptr;  ///< Start of the current payload.
    std::size_t index_ = 0;
    std::size_t count_ = 0;
    InstancePayloadView view_;
  };

  /// Validates and wraps `buffer`. Throws DecodeError on truncated or
  /// structurally invalid input — identically to Adam2Message::decode.
  [[nodiscard]] static Adam2MessageView parse(std::span<const std::byte> buffer);

  [[nodiscard]] MessageType type() const { return type_; }
  [[nodiscard]] std::uint64_t sender() const { return sender_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] iterator begin() const {
    return iterator(payloads_, 0, count_);
  }
  [[nodiscard]] iterator end() const {
    return iterator(nullptr, count_, count_);
  }

  /// Owning copy (convenience for tests).
  [[nodiscard]] Adam2Message materialize() const;

 private:
  Adam2MessageView() = default;

  MessageType type_ = MessageType::kAdam2Request;
  std::uint64_t sender_ = 0;
  std::size_t count_ = 0;
  const std::byte* payloads_ = nullptr;  ///< First payload's first byte.
};

/// Zero-copy encoder for Adam2 messages: appends payloads straight from the
/// sender's live state into a *borrowed* Writer, avoiding the intermediate
/// Adam2Message copies on the per-exchange hot path. Agents keep the Writer
/// as a reusable scratch buffer, so once its capacity has grown to the
/// steady-state message size, encoding allocates nothing. The payload count
/// is patched in at finish().
class Adam2MessageBuilder {
 public:
  /// Clears `scratch` (keeping capacity) and writes the message header.
  /// The builder borrows the writer; the encoded bytes live in it.
  Adam2MessageBuilder(Writer& scratch, MessageType type, std::uint64_t sender);

  void add(const InstancePayload& payload);
  /// Same encoding, straight from live state (spans instead of owned
  /// vectors) — the byte-for-byte fast path InstanceStore slots use. On
  /// little-endian hosts the point series are appended with one memcpy.
  void add(const InstancePayloadRef& payload);

  /// Appends the paper-literal "empty set" marker for `like`'s instance.
  void add_empty_set(const InstancePayload& like);
  void add_empty_set(const InstancePayloadRef& like);

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Finalises and returns a view of the encoded message. The view aliases
  /// the scratch writer: valid until the writer is next cleared or written.
  [[nodiscard]] std::span<const std::byte> finish();

 private:
  Writer& writer_;
  std::uint32_t count_ = 0;
};

/// Sent by a node joining the overlay to one of its initial neighbours.
struct BootstrapRequest {
  std::uint64_t sender = 0;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static BootstrapRequest decode(std::span<const std::byte> buffer);

  friend bool operator==(const BootstrapRequest&, const BootstrapRequest&) =
      default;
};

/// Bootstrap reply: the neighbour's current view of the world, giving the
/// joiner an initial CDF approximation and system-size estimate (§IV, §VII-G).
struct BootstrapResponse {
  std::uint64_t sender = 0;
  double n_estimate = 0.0;  ///< 0 when the neighbour has none yet.
  double min_value = 0.0;
  double max_value = 0.0;
  std::vector<stats::CdfPoint> cdf_knots;  ///< Empty when no estimate yet.

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static BootstrapResponse decode(
      std::span<const std::byte> buffer);

  friend bool operator==(const BootstrapResponse&, const BootstrapResponse&) =
      default;
};

/// EquiDepth baseline gossip message: a phase identity plus the equi-depth
/// synopsis (weighted centroids) being disseminated.
struct EquiDepthMessage {
  MessageType type = MessageType::kEquiDepthRequest;
  std::uint64_t sender = 0;
  InstanceId phase;
  std::uint32_t start_round = 0;
  std::uint16_t ttl = 0;
  std::uint8_t flags = 0;
  std::vector<stats::WeightedValue> synopsis;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static EquiDepthMessage decode(
      std::span<const std::byte> buffer);
  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(const EquiDepthMessage&, const EquiDepthMessage&) =
      default;
};

/// Peer-sampling descriptor: overlay address, gossip age, and the node's
/// current attribute value (piggybacked so neighbour-based bootstrap can use
/// cached neighbour values, §V / §VII-B).
struct NodeDescriptor {
  std::uint64_t id = 0;
  std::uint32_t age = 0;
  std::int64_t attribute = 0;

  friend bool operator==(const NodeDescriptor&, const NodeDescriptor&) =
      default;
};

/// Cyclon-style view-shuffle message (overlay maintenance channel).
struct ShuffleMessage {
  MessageType type = MessageType::kShuffleRequest;
  std::uint64_t sender = 0;
  std::vector<NodeDescriptor> descriptors;

  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static ShuffleMessage decode(std::span<const std::byte> buffer);
  [[nodiscard]] std::size_t encoded_size() const {
    return encoded_size(descriptors.size());
  }
  /// The encoded size of a message carrying `descriptors` descriptors.
  [[nodiscard]] static std::size_t encoded_size(std::size_t descriptors);

  friend bool operator==(const ShuffleMessage&, const ShuffleMessage&) = default;
};

}  // namespace adam2::wire
