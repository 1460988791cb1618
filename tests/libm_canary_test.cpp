// Canary for the one outside dependency of every pinned digest: libm.
//
// A digest depends on the seed, on IEEE-754 basic operations (the libraries
// compile with -ffp-contract=off, so no build fuses them) and on libm, which
// the data generators and the continuous samplers call (std::log, std::exp,
// std::sqrt). libm does not promise correctly rounded results for
// all of these, so another libm may draw other populations and move every
// golden digest and EXPERIMENTS.md number at once. These pins fail first,
// and by name (DESIGN.md, "Parallel determinism model").
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "data/boinc_synth.hpp"
#include "host/snapshot.hpp"
#include "rng/rng.hpp"
#include "wire/buffer.hpp"

namespace adam2 {
namespace {

constexpr std::size_t kDraws = 10'000;

constexpr const char* kSuspect =
    " -- this build's libm rounds differently from the one the pin was "
    "taken with (or the generator changed); expect every golden digest to "
    "move with it";

/// FNV-1a over the little-endian encoding, so the pin is the same on any
/// host byte order.
std::uint64_t digest_of(const std::vector<std::int64_t>& values) {
  wire::Writer out;
  for (const std::int64_t v : values) out.i64(v);
  return host::snapshot::fnv1a(out.view());
}

std::uint64_t digest_of_draws(const std::function<double()>& draw) {
  wire::Writer out;
  for (std::size_t i = 0; i < kDraws; ++i) out.f64(draw());
  return host::snapshot::fnv1a(out.view());
}

TEST(LibmCanaryTest, PopulationsMatchTheirPins) {
  struct Pin {
    data::Attribute attribute;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {data::Attribute::kCpuMflops, 13288062769744498013u},
      {data::Attribute::kRamMb, 14054386907955296553u},
      {data::Attribute::kBandwidthKbps, 13865452316957086985u},
      {data::Attribute::kDiskGb, 5985942495551781527u},
  };
  for (const Pin& pin : pins) {
    rng::Rng rng(42);
    const std::uint64_t digest =
        digest_of(data::generate_population(pin.attribute, kDraws, rng));
    EXPECT_EQ(digest, pin.digest)
        << data::attribute_name(pin.attribute) << " population" << kSuspect;
  }
}

TEST(LibmCanaryTest, SamplersMatchTheirPins) {
  rng::Rng normal_rng(1);
  EXPECT_EQ(digest_of_draws([&] { return normal_rng.normal(); }),
            13775481331978573758u)
      << "Rng::normal (std::log, std::sqrt)" << kSuspect;
  rng::Rng lognormal_rng(2);
  EXPECT_EQ(digest_of_draws([&] { return lognormal_rng.lognormal(5.0, 1.5); }),
            11590751053531027598u)
      << "Rng::lognormal (std::exp)" << kSuspect;
}

}  // namespace
}  // namespace adam2
