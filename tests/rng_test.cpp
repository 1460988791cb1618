#include "rng/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>

namespace adam2::rng {
namespace {

TEST(SplitMix64Test, MatchesReferenceVector) {
  // Reference outputs for seed 0 (Vigna's splitmix64.c).
  std::uint64_t state = 0;
  EXPECT_EQ(split_mix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(split_mix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(split_mix64(state), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(RngTest, SplitProducesDecorrelatedStreams) {
  Rng parent(99);
  Rng child1 = parent.split(1);
  Rng child2 = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformStaysInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 11.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 11.0);
  }
}

TEST(RngTest, UniformMeanIsCentred) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowIsAlwaysInRange) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowIsApproximatelyUniform) {
  Rng rng(8);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, NormalHasUnitMoments) {
  Rng rng(12);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LognormalMedianIsExpMu) {
  Rng rng(14);
  std::vector<double> xs;
  const int n = 50001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, WeightedIndexMatchesWeights) {
  Rng rng(17);
  const std::array<double, 3> weights{1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.7, 0.01);
}

TEST(RngTest, WeightedIndexSkipsZeroWeights) {
  Rng rng(18);
  const std::array<double, 3> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> xs(100);
  std::iota(xs.begin(), xs.end(), 0);
  auto shuffled = xs;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(xs.begin(), xs.end(), shuffled.begin()));
  EXPECT_NE(xs, shuffled);  // Astronomically unlikely to be identity.
}

TEST(RngTest, SampleIndicesReturnsDistinct) {
  Rng rng(20);
  const auto picked = rng.sample_indices(1000, 50);
  ASSERT_EQ(picked.size(), 50u);
  const std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 50u);
  for (std::size_t idx : picked) EXPECT_LT(idx, 1000u);
}

TEST(RngTest, SampleIndicesReturnsAllWhenKTooLarge) {
  Rng rng(21);
  const auto picked = rng.sample_indices(10, 50);
  ASSERT_EQ(picked.size(), 10u);
  const std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleIndicesIsUnbiased) {
  Rng rng(22);
  std::array<int, 10> counts{};
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t idx : rng.sample_indices(10, 3)) ++counts[idx];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

}  // namespace
}  // namespace adam2::rng
