#include "wire/messages.hpp"

namespace adam2::wire {
namespace {

void check_type(MessageType got, MessageType a, MessageType b,
                const char* what) {
  if (got != a && got != b) throw DecodeError(std::string("bad type tag for ") + what);
}

// A payload's fixed header (everything before the two point series), at
// the offsets Adam2MessageView::iterator::load reads back.
constexpr std::size_t kPayloadHeaderSize = kInstancePayloadFixedSize - 8;

// The header is encoded in place with one append.
template <typename PayloadT>
void encode_header(Writer& w, const PayloadT& p, std::uint8_t flags,
                   double weight, double min_value, double max_value) {
  std::byte* at = w.extend(kPayloadHeaderSize);
  store_le(at, p.id.initiator);
  store_le(at + 8, p.id.seq);
  store_le(at + 12, p.start_round);
  store_le(at + 16, p.ttl);
  at[18] = static_cast<std::byte>(flags);
  store_f64(at + 19, weight);
  store_f64(at + 27, min_value);
  store_f64(at + 35, max_value);
}

// One encode routine serves the owning payload and the span-based ref
// alike (both expose the same field names and point ranges), so the two
// paths are byte-identical by construction.
template <typename PayloadT>
void encode_payload(Writer& w, const PayloadT& p) {
  encode_header(w, p, p.flags, p.weight, p.min_value, p.max_value);
  encode_points(w, p.points);
  encode_points(w, p.verification);
}

// The paper-literal "empty set" marker: `like`'s identity and TTL with the
// flag set, zeroed averaging fields, no point series.
template <typename PayloadT>
void encode_empty_set(Writer& w, const PayloadT& like) {
  encode_header(w, like, kFlagEmptySet, 0.0, 0.0, 0.0);
  w.length(0);
  w.length(0);
}

InstancePayload decode_payload(Reader& r) {
  InstancePayload p;
  p.id.initiator = r.u64();
  p.id.seq = r.u32();
  p.start_round = r.u32();
  p.ttl = r.u16();
  p.flags = r.u8();
  p.weight = r.f64();
  p.min_value = r.f64();
  p.max_value = r.f64();
  p.points = decode_points(r);
  p.verification = decode_points(r);
  return p;
}

}  // namespace

void encode_points(Writer& w, std::span<const stats::CdfPoint> points) {
  w.length(points.size());
  if constexpr (std::endian::native == std::endian::little) {
    w.bytes(std::as_bytes(points));
  } else {
    for (const stats::CdfPoint& p : points) {
      w.f64(p.t);
      w.f64(p.f);
    }
  }
}

std::vector<stats::CdfPoint> decode_points(Reader& r) {
  const std::size_t n = r.length(16);
  std::vector<stats::CdfPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats::CdfPoint p;
    p.t = r.f64();
    p.f = r.f64();
    points.push_back(p);
  }
  return points;
}

Adam2MessageBuilder::Adam2MessageBuilder(Writer& scratch, MessageType type,
                                         std::uint64_t sender)
    : writer_(scratch) {
  writer_.clear();
  writer_.u8(static_cast<std::uint8_t>(type));
  writer_.u64(sender);
  writer_.u32(0);  // Payload count, patched in finish().
}

void Adam2MessageBuilder::add(const InstancePayload& payload) {
  encode_payload(writer_, payload);
  ++count_;
}

void Adam2MessageBuilder::add(const InstancePayloadRef& payload) {
  encode_payload(writer_, payload);
  ++count_;
}

void Adam2MessageBuilder::add_empty_set(const InstancePayload& like) {
  encode_empty_set(writer_, like);
  ++count_;
}

void Adam2MessageBuilder::add_empty_set(const InstancePayloadRef& like) {
  encode_empty_set(writer_, like);
  ++count_;
}

std::span<const std::byte> Adam2MessageBuilder::finish() {
  writer_.patch_u32(1 + 8, count_);
  return writer_.view();
}

std::vector<stats::CdfPoint> PointsView::materialize() const {
  std::vector<stats::CdfPoint> points;
  points.reserve(count_);
  for (const stats::CdfPoint p : *this) points.push_back(p);
  return points;
}

InstancePayload InstancePayloadView::materialize() const {
  InstancePayload p;
  p.id = id;
  p.start_round = start_round;
  p.ttl = ttl;
  p.flags = flags;
  p.weight = weight;
  p.min_value = min_value;
  p.max_value = max_value;
  p.points = points.materialize();
  p.verification = verification.materialize();
  return p;
}

Adam2MessageView::iterator::iterator(const std::byte* at, std::size_t index,
                                     std::size_t count)
    : at_(at), index_(index), count_(count) {
  if (index_ < count_) load();
}

void Adam2MessageView::iterator::load() {
  // Structure was validated by parse(); decode without re-checking bounds.
  const std::byte* p = at_;
  view_.id.initiator = load_le<std::uint64_t>(p);
  view_.id.seq = load_le<std::uint32_t>(p + 8);
  view_.start_round = load_le<std::uint32_t>(p + 12);
  view_.ttl = load_le<std::uint16_t>(p + 16);
  view_.flags = static_cast<std::uint8_t>(p[18]);
  view_.weight = load_f64(p + 19);
  view_.min_value = load_f64(p + 27);
  view_.max_value = load_f64(p + 35);
  p += 43;
  const auto n_points = load_le<std::uint32_t>(p);
  view_.points = PointsView(p + 4, n_points);
  p += 4 + 16 * static_cast<std::size_t>(n_points);
  const auto n_verification = load_le<std::uint32_t>(p);
  view_.verification = PointsView(p + 4, n_verification);
}

Adam2MessageView::iterator& Adam2MessageView::iterator::operator++() {
  at_ += 43 + 4 + 16 * view_.points.size() + 4 + 16 * view_.verification.size();
  ++index_;
  if (index_ < count_) load();
  return *this;
}

Adam2MessageView Adam2MessageView::parse(std::span<const std::byte> buffer) {
  // One validation walk with exactly the checks of Adam2Message::decode, so
  // both reject the same corrupt buffers with the same DecodeError — but
  // without materialising anything. Iteration afterwards cannot fail.
  Reader r(buffer);
  Adam2MessageView view;
  view.type_ = static_cast<MessageType>(r.u8());
  check_type(view.type_, MessageType::kAdam2Request,
             MessageType::kAdam2Response, "Adam2Message");
  view.sender_ = r.u64();
  view.count_ = r.length(kInstancePayloadFixedSize);
  view.payloads_ = buffer.data() + r.position();
  for (std::size_t i = 0; i < view.count_; ++i) {
    r.skip(kPayloadHeaderSize);
    const std::size_t n_points = r.length(16);
    r.skip(16 * n_points);
    const std::size_t n_verification = r.length(16);
    r.skip(16 * n_verification);
  }
  r.expect_done();
  return view;
}

Adam2Message Adam2MessageView::materialize() const {
  Adam2Message m;
  m.type = type_;
  m.sender = sender_;
  m.instances.reserve(count_);
  for (const InstancePayloadView& p : *this) {
    m.instances.push_back(p.materialize());
  }
  return m;
}

std::vector<std::byte> Adam2Message::encode() const {
  Writer w;
  w.reserve(encoded_size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(sender);
  w.length(instances.size());
  for (const InstancePayload& p : instances) encode_payload(w, p);
  return w.take();
}

Adam2Message Adam2Message::decode(std::span<const std::byte> buffer) {
  Reader r(buffer);
  Adam2Message m;
  m.type = static_cast<MessageType>(r.u8());
  check_type(m.type, MessageType::kAdam2Request, MessageType::kAdam2Response,
             "Adam2Message");
  m.sender = r.u64();
  const std::size_t n = r.length(kInstancePayloadFixedSize);
  m.instances.reserve(n);
  for (std::size_t i = 0; i < n; ++i) m.instances.push_back(decode_payload(r));
  r.expect_done();
  return m;
}

std::size_t Adam2Message::encoded_size() const {
  std::size_t size = 1 + 8 + 4;  // type + sender + count
  for (const InstancePayload& p : instances) {
    size += kInstancePayloadFixedSize +
            16 * (p.points.size() + p.verification.size());
  }
  return size;
}

std::vector<std::byte> BootstrapRequest::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::kBootstrapRequest));
  w.u64(sender);
  return w.take();
}

BootstrapRequest BootstrapRequest::decode(std::span<const std::byte> buffer) {
  Reader r(buffer);
  check_type(static_cast<MessageType>(r.u8()), MessageType::kBootstrapRequest,
             MessageType::kBootstrapRequest, "BootstrapRequest");
  BootstrapRequest m;
  m.sender = r.u64();
  r.expect_done();
  return m;
}

std::vector<std::byte> BootstrapResponse::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::kBootstrapResponse));
  w.u64(sender);
  w.f64(n_estimate);
  w.f64(min_value);
  w.f64(max_value);
  encode_points(w, cdf_knots);
  return w.take();
}

BootstrapResponse BootstrapResponse::decode(std::span<const std::byte> buffer) {
  Reader r(buffer);
  check_type(static_cast<MessageType>(r.u8()), MessageType::kBootstrapResponse,
             MessageType::kBootstrapResponse, "BootstrapResponse");
  BootstrapResponse m;
  m.sender = r.u64();
  m.n_estimate = r.f64();
  m.min_value = r.f64();
  m.max_value = r.f64();
  m.cdf_knots = decode_points(r);
  r.expect_done();
  return m;
}

std::vector<std::byte> EquiDepthMessage::encode() const {
  Writer w;
  w.reserve(encoded_size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(sender);
  w.u64(phase.initiator);
  w.u32(phase.seq);
  w.u32(start_round);
  w.u16(ttl);
  w.u8(flags);
  w.length(synopsis.size());
  for (const stats::WeightedValue& s : synopsis) {
    w.f64(s.value);
    w.f64(s.weight);
  }
  return w.take();
}

EquiDepthMessage EquiDepthMessage::decode(std::span<const std::byte> buffer) {
  Reader r(buffer);
  EquiDepthMessage m;
  m.type = static_cast<MessageType>(r.u8());
  check_type(m.type, MessageType::kEquiDepthRequest,
             MessageType::kEquiDepthResponse, "EquiDepthMessage");
  m.sender = r.u64();
  m.phase.initiator = r.u64();
  m.phase.seq = r.u32();
  m.start_round = r.u32();
  m.ttl = r.u16();
  m.flags = r.u8();
  const std::size_t n = r.length(16);
  m.synopsis.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats::WeightedValue s;
    s.value = r.f64();
    s.weight = r.f64();
    m.synopsis.push_back(s);
  }
  r.expect_done();
  return m;
}

std::size_t EquiDepthMessage::encoded_size() const {
  return 1 + 8 + 12 + 4 + 2 + 1 + 4 + 16 * synopsis.size();
}

std::vector<std::byte> ShuffleMessage::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(sender);
  w.length(descriptors.size());
  for (const NodeDescriptor& d : descriptors) {
    w.u64(d.id);
    w.u32(d.age);
    w.i64(d.attribute);
  }
  return w.take();
}

std::size_t ShuffleMessage::encoded_size(std::size_t descriptors) {
  return 1 + 8 + 4 + 20 * descriptors;
}

ShuffleMessage ShuffleMessage::decode(std::span<const std::byte> buffer) {
  Reader r(buffer);
  ShuffleMessage m;
  m.type = static_cast<MessageType>(r.u8());
  check_type(m.type, MessageType::kShuffleRequest,
             MessageType::kShuffleResponse, "ShuffleMessage");
  m.sender = r.u64();
  const std::size_t n = r.length(20);
  m.descriptors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeDescriptor d;
    d.id = r.u64();
    d.age = r.u32();
    d.attribute = r.i64();
    m.descriptors.push_back(d);
  }
  r.expect_done();
  return m;
}

}  // namespace adam2::wire
