#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "rng/rng.hpp"
#include "wire/buffer.hpp"
#include "wire/messages.hpp"

namespace adam2::wire {
namespace {

// ------------------------------------------------------------------ Buffer

TEST(BufferTest, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);

  Reader r(w.view());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(BufferTest, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const auto& bytes = w.view();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned>(bytes[0]), 0x04u);
  EXPECT_EQ(static_cast<unsigned>(bytes[3]), 0x01u);
}

TEST(BufferTest, SpecialDoublesRoundTrip) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-std::numeric_limits<double>::infinity());
  w.f64(0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  Reader r(w.view());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

TEST(BufferTest, TruncatedReadThrows) {
  Writer w;
  w.u16(7);
  Reader r(w.view());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW((void)r.u8(), DecodeError);
}

TEST(BufferTest, ExpectDoneThrowsOnTrailingBytes) {
  Writer w;
  w.u16(7);
  w.u8(1);
  Reader r(w.view());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(BufferTest, LengthGuardsAgainstHugeAllocations) {
  Writer w;
  w.u32(0xffffffff);  // Claims 4 billion elements...
  Reader r(w.view());
  EXPECT_THROW((void)r.length(16), DecodeError);  // ...but no bytes follow.
}

TEST(BufferTest, LengthAcceptsHonestSequences) {
  Writer w;
  w.length(2);
  w.u64(1);
  w.u64(2);
  Reader r(w.view());
  EXPECT_EQ(r.length(8), 2u);
}

// ---------------------------------------------------------------- Messages

InstancePayload sample_payload(std::uint32_t seq = 7) {
  InstancePayload p;
  p.id = {42, seq};
  p.start_round = 19;
  p.ttl = 23;
  p.flags = 0;
  p.weight = 0.125;
  p.min_value = -4.0;
  p.max_value = 1e9;
  p.points = {{1.0, 0.25}, {2.5, 0.5}, {100.0, 0.99}};
  p.verification = {{1.5, 0.3}};
  return p;
}

TEST(Adam2MessageTest, RoundTrip) {
  Adam2Message m;
  m.type = MessageType::kAdam2Request;
  m.sender = 1234;
  m.instances = {sample_payload(1), sample_payload(2)};
  const auto bytes = m.encode();
  EXPECT_EQ(Adam2Message::decode(bytes), m);
}

TEST(Adam2MessageTest, EncodedSizeMatchesEncoding) {
  Adam2Message m;
  m.type = MessageType::kAdam2Response;
  m.sender = 5;
  m.instances = {sample_payload()};
  EXPECT_EQ(m.encoded_size(), m.encode().size());

  m.instances.clear();
  EXPECT_EQ(m.encoded_size(), m.encode().size());
}

TEST(Adam2MessageTest, PaperMessageSizeAtLambda50) {
  // §VII-I: "For lambda = 50 the size of a gossip message is approximately
  // 800 bytes". Our format: 50 points * 16 B + fixed overhead.
  Adam2Message m;
  m.type = MessageType::kAdam2Request;
  m.sender = 1;
  InstancePayload p;
  p.id = {1, 0};
  for (int i = 0; i < 50; ++i) {
    p.points.push_back({static_cast<double>(i), 0.5});
  }
  m.instances = {p};
  const std::size_t size = m.encoded_size();
  EXPECT_GE(size, 800u);
  EXPECT_LE(size, 900u);
}

TEST(Adam2MessageTest, TenExtraPointsCostAbout160Bytes) {
  // §VII-D: "with 10 extra points, the size of the messages increases by
  // about 160 bytes".
  auto size_for = [](int lambda) {
    Adam2Message m;
    InstancePayload p;
    for (int i = 0; i < lambda; ++i) p.points.push_back({1.0 * i, 0.5});
    m.instances = {p};
    return m.encoded_size();
  };
  EXPECT_EQ(size_for(60) - size_for(50), 160u);
}

TEST(Adam2MessageTest, RejectsWrongTypeTag) {
  Adam2Message m;
  m.instances = {sample_payload()};
  auto bytes = m.encode();
  bytes[0] = static_cast<std::byte>(MessageType::kShuffleRequest);
  EXPECT_THROW((void)Adam2Message::decode(bytes), DecodeError);
}

TEST(Adam2MessageTest, RejectsTruncatedBuffer) {
  Adam2Message m;
  m.instances = {sample_payload()};
  auto bytes = m.encode();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)Adam2Message::decode(bytes), DecodeError);
}

TEST(Adam2MessageTest, RejectsTrailingGarbage) {
  Adam2Message m;
  m.instances = {sample_payload()};
  auto bytes = m.encode();
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)Adam2Message::decode(bytes), DecodeError);
}

TEST(Adam2MessageTest, EmptySetFlagSurvivesRoundTrip) {
  Adam2Message m;
  InstancePayload p;
  p.id = {9, 1};
  p.flags = kFlagEmptySet;
  m.instances = {p};
  const auto decoded = Adam2Message::decode(m.encode());
  EXPECT_EQ(decoded.instances[0].flags, kFlagEmptySet);
}

TEST(BootstrapMessagesTest, RequestRoundTrip) {
  const BootstrapRequest req{77};
  EXPECT_EQ(BootstrapRequest::decode(req.encode()), req);
}

TEST(BootstrapMessagesTest, ResponseRoundTrip) {
  BootstrapResponse resp;
  resp.sender = 3;
  resp.n_estimate = 99000.5;
  resp.min_value = 1.0;
  resp.max_value = 2.0;
  resp.cdf_knots = {{1.0, 0.0}, {1.5, 0.5}, {2.0, 1.0}};
  EXPECT_EQ(BootstrapResponse::decode(resp.encode()), resp);
}

TEST(BootstrapMessagesTest, EmptyResponseRoundTrip) {
  const BootstrapResponse resp;
  EXPECT_EQ(BootstrapResponse::decode(resp.encode()), resp);
}

TEST(EquiDepthMessageTest, RoundTrip) {
  EquiDepthMessage m;
  m.type = MessageType::kEquiDepthResponse;
  m.sender = 11;
  m.phase = {4, 2};
  m.start_round = 100;
  m.ttl = 13;
  m.synopsis = {{1.0, 2.0}, {3.0, 0.5}};
  EXPECT_EQ(EquiDepthMessage::decode(m.encode()), m);
  EXPECT_EQ(m.encoded_size(), m.encode().size());
}

TEST(EquiDepthMessageTest, ComparableSizeToAdam2AtSameBudget) {
  // §VII-I: "The costs of EquiDepth are very similar to those of Adam2".
  EquiDepthMessage ed;
  for (int i = 0; i < 50; ++i) ed.synopsis.push_back({1.0 * i, 1.0});
  Adam2Message a2;
  InstancePayload p;
  for (int i = 0; i < 50; ++i) p.points.push_back({1.0 * i, 0.5});
  a2.instances = {p};
  const auto diff =
      static_cast<std::ptrdiff_t>(ed.encoded_size()) -
      static_cast<std::ptrdiff_t>(a2.encoded_size());
  EXPECT_LT(std::abs(diff), 64);
}

TEST(ShuffleMessageTest, RoundTrip) {
  ShuffleMessage m;
  m.type = MessageType::kShuffleRequest;
  m.sender = 8;
  m.descriptors = {{1, 0, 512}, {2, 5, 1024}, {3, 9, -7}};
  EXPECT_EQ(ShuffleMessage::decode(m.encode()), m);
}

// ---------------------------------------------------- Zero-copy view parity

TEST(Adam2MessageViewTest, MaterializeMatchesDecode) {
  Adam2Message m;
  m.type = MessageType::kAdam2Response;
  m.sender = 1234;
  m.instances = {sample_payload(1), sample_payload(2)};
  const auto bytes = m.encode();
  const Adam2MessageView view = Adam2MessageView::parse(bytes);
  EXPECT_EQ(view.type(), m.type);
  EXPECT_EQ(view.sender(), m.sender);
  EXPECT_EQ(view.size(), m.instances.size());
  EXPECT_EQ(view.materialize(), Adam2Message::decode(bytes));
  EXPECT_EQ(view.materialize(), m);
}

TEST(Adam2MessageViewTest, PayloadFieldsAndPointsDecodeInPlace) {
  Adam2Message m;
  m.sender = 9;
  m.instances = {sample_payload(3)};
  const auto bytes = m.encode();
  const Adam2MessageView view = Adam2MessageView::parse(bytes);
  const InstancePayload& want = m.instances.front();
  auto it = view.begin();
  EXPECT_EQ(it->id, want.id);
  EXPECT_EQ(it->start_round, want.start_round);
  EXPECT_EQ(it->ttl, want.ttl);
  EXPECT_EQ(it->flags, want.flags);
  EXPECT_EQ(it->weight, want.weight);
  EXPECT_EQ(it->min_value, want.min_value);
  EXPECT_EQ(it->max_value, want.max_value);
  ASSERT_EQ(it->points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(it->points[i].t, want.points[i].t);
    EXPECT_EQ(it->points[i].f, want.points[i].f);
  }
  EXPECT_EQ(it->points.materialize(), want.points);
  EXPECT_EQ(it->verification.materialize(), want.verification);
  ++it;
  EXPECT_EQ(it, view.end());
}

TEST(Adam2MessageViewTest, EmptyMessageParses) {
  Adam2Message m;
  m.sender = 3;
  const auto bytes = m.encode();
  const Adam2MessageView view = Adam2MessageView::parse(bytes);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.begin(), view.end());
  EXPECT_EQ(view.materialize(), m);
}

TEST(Adam2MessageViewTest, RejectsCorruptBuffersLikeDecode) {
  Adam2Message m;
  m.instances = {sample_payload()};
  const auto good = m.encode();

  auto wrong_type = good;
  wrong_type[0] = static_cast<std::byte>(MessageType::kShuffleRequest);
  EXPECT_THROW((void)Adam2MessageView::parse(wrong_type), DecodeError);

  auto truncated = good;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)Adam2MessageView::parse(truncated), DecodeError);

  auto trailing = good;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)Adam2MessageView::parse(trailing), DecodeError);

  EXPECT_THROW((void)Adam2MessageView::parse({}), DecodeError);
}

TEST(Adam2MessageBuilderTest, BytesAreIdenticalToOwningEncode) {
  Adam2Message m;
  m.type = MessageType::kAdam2Request;
  m.sender = 77;
  m.instances = {sample_payload(1), sample_payload(2)};

  Writer scratch;
  Adam2MessageBuilder builder(scratch, m.type, m.sender);
  for (const InstancePayload& p : m.instances) builder.add(p);
  const auto built = builder.finish();
  const auto owned = m.encode();
  ASSERT_EQ(built.size(), owned.size());
  EXPECT_TRUE(std::equal(built.begin(), built.end(), owned.begin()));
}

TEST(Adam2MessageBuilderTest, ScratchIsReusableAndEmptySetMatches) {
  Writer scratch;
  {
    Adam2MessageBuilder builder(scratch, MessageType::kAdam2Request, 1);
    builder.add(sample_payload());
    (void)builder.finish();
  }
  // Second message on the same scratch: the empty-set marker must encode
  // exactly what the owning encoder produces for the id/round/ttl-only
  // payload with the flag set.
  const InstancePayload like = sample_payload(9);
  Adam2Message owning;
  owning.type = MessageType::kAdam2Response;
  owning.sender = 2;
  InstancePayload marker;
  marker.id = like.id;
  marker.start_round = like.start_round;
  marker.ttl = like.ttl;
  marker.flags = kFlagEmptySet;
  owning.instances = {marker};

  Adam2MessageBuilder builder(scratch, MessageType::kAdam2Response, 2);
  builder.add_empty_set(like);
  const auto built = builder.finish();
  const auto owned = owning.encode();
  ASSERT_EQ(built.size(), owned.size());
  EXPECT_TRUE(std::equal(built.begin(), built.end(), owned.begin()));
}

/// Fuzz: random truncations/corruptions must throw DecodeError, never crash
/// or hang — and the zero-copy view must accept/reject exactly the buffers
/// the owning decoder does, producing the same message when both accept.
class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, CorruptedBuffersThrowCleanly) {
  rng::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Adam2Message m;
  m.sender = rng();
  const std::size_t count = rng.below(3);
  for (std::size_t i = 0; i < count; ++i) {
    m.instances.push_back(sample_payload(static_cast<std::uint32_t>(i)));
  }
  auto bytes = m.encode();
  // Corrupt a few random bytes and/or truncate.
  for (int i = 0; i < 4 && !bytes.empty(); ++i) {
    bytes[rng.below(bytes.size())] = static_cast<std::byte>(rng() & 0xff);
  }
  if (rng.bernoulli(0.5) && !bytes.empty()) {
    bytes.resize(rng.below(bytes.size()));
  }
  std::optional<Adam2Message> decoded;
  try {
    decoded = Adam2Message::decode(bytes);
  } catch (const DecodeError&) {
    // Expected for most corruptions.
  }
  std::optional<Adam2Message> viewed;
  try {
    viewed = Adam2MessageView::parse(bytes).materialize();
  } catch (const DecodeError&) {
  }
  EXPECT_EQ(decoded.has_value(), viewed.has_value());
  if (decoded && viewed) {
    EXPECT_EQ(*decoded, *viewed);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorruptions, WireFuzzTest,
                         ::testing::Range(0, 50));

// --------------------------------------------------------- Mutant corpus
//
// Seeded corpus of >= 10k mutants per wire format (ISSUE PR5 satellite).
// Every mutant must either throw DecodeError or decode into a value whose
// canonical re-encoding reproduces the mutant byte for byte — corruption is
// always rejected or provably harmless, never silently misread. For Adam2
// messages the zero-copy validation walk must additionally agree with the
// owning decoder on every single mutant (same accept/reject, same content).

constexpr int kMutantsPerFormat = 10'000;

std::vector<std::byte> mutate(std::vector<std::byte> bytes, rng::Rng& rng) {
  const auto flip_some = [&rng](std::vector<std::byte>& target) {
    if (target.empty()) return;
    for (std::uint64_t i = 1 + rng.below(8); i > 0; --i) {
      target[rng.below(target.size())] ^=
          static_cast<std::byte>(1 + rng.below(255));
    }
  };
  switch (rng.below(4)) {
    case 0:  // Truncate.
      if (!bytes.empty()) bytes.resize(rng.below(bytes.size()));
      break;
    case 1:  // Extend with a random tail.
      for (std::uint64_t i = 1 + rng.below(8); i > 0; --i) {
        bytes.push_back(static_cast<std::byte>(rng() & 0xff));
      }
      break;
    case 2:  // Truncate, then flip inside what remains.
      if (!bytes.empty()) bytes.resize(1 + rng.below(bytes.size()));
      flip_some(bytes);
      break;
    default:  // Flip 1-8 bytes in place.
      flip_some(bytes);
      break;
  }
  return bytes;
}

/// Shared accept-or-reject oracle: decoding the mutant must either throw
/// DecodeError or yield a value that re-encodes to exactly the mutant bytes
/// (every codec here is canonical: fixed-width little-endian fields and
/// length-prefixed sequences, so acceptance implies byte-exact round-trip).
/// Returns whether the mutant was accepted.
template <typename Message>
bool rejected_or_canonical(const std::vector<std::byte>& mutant) {
  std::optional<Message> decoded;
  try {
    decoded = Message::decode(mutant);
  } catch (const DecodeError&) {
    return false;  // Rejected cleanly — the expected fate of most mutants.
  }
  const std::vector<std::byte> reencoded = decoded->encode();
  EXPECT_EQ(reencoded.size(), mutant.size());
  EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), mutant.begin()));
  return true;
}

template <typename Message, typename MakeSample>
void run_corpus(std::uint64_t seed, MakeSample&& make_sample) {
  rng::Rng rng(seed);
  std::size_t accepted = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const Message pristine = make_sample(rng);
    const std::vector<std::byte> mutant = mutate(pristine.encode(), rng);
    if (rejected_or_canonical<Message>(mutant)) ++accepted;
  }
  // The corpus must exercise both fates, or the oracle proves nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutantsPerFormat));
}

TEST(WireMutantCorpusTest, Adam2ViewAndDecodeAgreeOnEveryMutant) {
  rng::Rng rng(0xada2c0de);
  std::size_t accepted = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    Adam2Message m;
    m.type = rng.bernoulli(0.5) ? MessageType::kAdam2Request
                                : MessageType::kAdam2Response;
    m.sender = rng();
    const std::size_t count = rng.below(3);
    for (std::size_t c = 0; c < count; ++c) {
      m.instances.push_back(
          sample_payload(static_cast<std::uint32_t>(rng.below(100))));
    }
    const std::vector<std::byte> mutant = mutate(m.encode(), rng);

    std::optional<Adam2Message> decoded;
    try {
      decoded = Adam2Message::decode(mutant);
    } catch (const DecodeError&) {
    }
    std::optional<Adam2Message> viewed;
    try {
      viewed = Adam2MessageView::parse(mutant).materialize();
    } catch (const DecodeError&) {
    }
    // The validation walk and the owning decoder must agree on every mutant.
    ASSERT_EQ(decoded.has_value(), viewed.has_value()) << "mutant " << i;
    if (!decoded) continue;
    ++accepted;
    // Compare re-encodings, not structs: byte-exact and NaN-proof (a mutant
    // can legitimately carry NaN doubles, where operator== would lie).
    const auto bytes_a = decoded->encode();
    const auto bytes_b = viewed->encode();
    ASSERT_EQ(bytes_a.size(), bytes_b.size()) << "mutant " << i;
    ASSERT_TRUE(std::equal(bytes_a.begin(), bytes_a.end(), bytes_b.begin()))
        << "mutant " << i;
    ASSERT_EQ(bytes_a.size(), mutant.size()) << "mutant " << i;
    ASSERT_TRUE(std::equal(bytes_a.begin(), bytes_a.end(), mutant.begin()))
        << "mutant " << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutantsPerFormat));
}

TEST(WireMutantCorpusTest, BootstrapRequestSurvivesCorpus) {
  run_corpus<BootstrapRequest>(0xb001, [](rng::Rng& rng) {
    BootstrapRequest m;
    m.sender = rng();
    return m;
  });
}

TEST(WireMutantCorpusTest, BootstrapResponseSurvivesCorpus) {
  run_corpus<BootstrapResponse>(0xb002, [](rng::Rng& rng) {
    BootstrapResponse m;
    m.sender = rng();
    m.n_estimate = rng.uniform(0.0, 1e6);
    m.min_value = rng.uniform(-100.0, 0.0);
    m.max_value = rng.uniform(0.0, 100.0);
    const std::size_t knots = rng.below(8);
    for (std::size_t k = 0; k < knots; ++k) {
      m.cdf_knots.push_back({rng.uniform(0.0, 100.0), rng.uniform()});
    }
    return m;
  });
}

TEST(WireMutantCorpusTest, EquiDepthMessageSurvivesCorpus) {
  run_corpus<EquiDepthMessage>(0xed03, [](rng::Rng& rng) {
    EquiDepthMessage m;
    m.type = rng.bernoulli(0.5) ? MessageType::kEquiDepthRequest
                                : MessageType::kEquiDepthResponse;
    m.sender = rng();
    m.phase = {rng(), static_cast<std::uint32_t>(rng.below(100))};
    m.start_round = static_cast<std::uint32_t>(rng.below(1000));
    m.ttl = static_cast<std::uint16_t>(rng.below(100));
    const std::size_t centroids = rng.below(6);
    for (std::size_t c = 0; c < centroids; ++c) {
      m.synopsis.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 10.0)});
    }
    return m;
  });
}

TEST(WireMutantCorpusTest, ShuffleMessageSurvivesCorpus) {
  run_corpus<ShuffleMessage>(0x5f04, [](rng::Rng& rng) {
    ShuffleMessage m;
    m.type = rng.bernoulli(0.5) ? MessageType::kShuffleRequest
                                : MessageType::kShuffleResponse;
    m.sender = rng();
    const std::size_t descriptors = rng.below(6);
    for (std::size_t d = 0; d < descriptors; ++d) {
      m.descriptors.push_back({rng(),
                               static_cast<std::uint32_t>(rng.below(50)),
                               static_cast<std::int64_t>(rng()) >> 8});
    }
    return m;
  });
}

}  // namespace
}  // namespace adam2::wire
