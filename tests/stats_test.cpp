#include <gtest/gtest.h>

#include <cmath>

#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/error_metrics.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace adam2::stats {
namespace {

// ---------------------------------------------------------------- Empirical

TEST(EmpiricalCdfTest, StepFunctionBasics) {
  const EmpiricalCdf cdf{{1, 2, 2, 4}};
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(1.5), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(3.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(100.0), 1.0);
}

TEST(EmpiricalCdfTest, MinMaxSize) {
  const EmpiricalCdf cdf{{5, -3, 9, 5}};
  EXPECT_EQ(cdf.min(), -3);
  EXPECT_EQ(cdf.max(), 9);
  EXPECT_EQ(cdf.size(), 4u);
}

TEST(EmpiricalCdfTest, SingleValue) {
  const EmpiricalCdf cdf{{7}};
  EXPECT_DOUBLE_EQ(cdf(6.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf(7.0), 1.0);
  EXPECT_EQ(cdf.min(), 7);
  EXPECT_EQ(cdf.max(), 7);
}

TEST(EmpiricalCdfTest, LastCumulativeFractionIsExactlyOne) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 37);
  const EmpiricalCdf cdf{values};
  EXPECT_DOUBLE_EQ(cdf.cumulative_fractions().back(), 1.0);
}

TEST(EmpiricalCdfTest, QuantileInvertsFractions) {
  const EmpiricalCdf cdf{{10, 20, 30, 40}};
  EXPECT_EQ(cdf.quantile(0.25), 10);
  EXPECT_EQ(cdf.quantile(0.26), 20);
  EXPECT_EQ(cdf.quantile(0.5), 20);
  EXPECT_EQ(cdf.quantile(1.0), 40);
  EXPECT_EQ(cdf.quantile(0.0), 10);
}

TEST(EmpiricalCdfTest, IsMonotoneNonDecreasing) {
  rng::Rng rng(1);
  std::vector<Value> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.range(-50, 50));
  const EmpiricalCdf cdf{values};
  double prev = -1.0;
  for (double x = -60; x <= 60; x += 0.5) {
    EXPECT_GE(cdf(x), prev);
    prev = cdf(x);
  }
}

// ---------------------------------------------------------- PiecewiseLinear

TEST(PiecewiseLinearCdfTest, InterpolatesBetweenKnots) {
  const PiecewiseLinearCdf cdf{{{0.0, 0.0}, {10.0, 1.0}}};
  EXPECT_DOUBLE_EQ(cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf(11.0), 1.0);
}

TEST(PiecewiseLinearCdfTest, SortsUnsortedKnots) {
  const PiecewiseLinearCdf cdf{{{10.0, 1.0}, {0.0, 0.0}, {5.0, 0.2}}};
  EXPECT_DOUBLE_EQ(cdf(5.0), 0.2);
  EXPECT_DOUBLE_EQ(cdf(7.5), 0.6);
}

TEST(PiecewiseLinearCdfTest, ClampsFractions) {
  const PiecewiseLinearCdf cdf{{{0.0, -0.5}, {10.0, 1.5}}};
  EXPECT_DOUBLE_EQ(cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf(10.0), 1.0);
}

TEST(PiecewiseLinearCdfTest, CollapsesDuplicateThresholds) {
  const PiecewiseLinearCdf cdf{{{5.0, 0.2}, {5.0, 0.6}, {10.0, 1.0}}};
  EXPECT_DOUBLE_EQ(cdf(5.0), 0.6);
}

TEST(PiecewiseLinearCdfTest, InverseRoundTripsOnMonotoneCurve) {
  const PiecewiseLinearCdf cdf{{{0.0, 0.0}, {4.0, 0.25}, {8.0, 0.75}, {16.0, 1.0}}};
  for (double q : {0.1, 0.25, 0.4, 0.75, 0.9}) {
    EXPECT_NEAR(cdf(cdf.inverse(q)), q, 1e-12);
  }
  EXPECT_DOUBLE_EQ(cdf.inverse(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 16.0);
}

TEST(PiecewiseLinearCdfTest, MonotoneDetectionAndRepair) {
  const PiecewiseLinearCdf wiggly{{{0.0, 0.0}, {1.0, 0.5}, {2.0, 0.4}, {3.0, 1.0}}};
  EXPECT_FALSE(wiggly.is_monotone());
  const PiecewiseLinearCdf fixed = wiggly.make_monotone();
  EXPECT_TRUE(fixed.is_monotone());
  EXPECT_DOUBLE_EQ(fixed(2.0), 0.5);
  EXPECT_DOUBLE_EQ(fixed(1.0), 0.5);
}

TEST(PiecewiseLinearCdfTest, ArcLengthOfDiagonal) {
  const PiecewiseLinearCdf cdf{{{0.0, 0.0}, {10.0, 1.0}}};
  // Scaled by t range 10 the curve is the unit diagonal: length sqrt(2).
  EXPECT_NEAR(cdf.arc_length(10.0), std::sqrt(2.0), 1e-12);
}

TEST(PiecewiseLinearCdfTest, ArcLengthAdditive) {
  const PiecewiseLinearCdf cdf{{{0.0, 0.0}, {5.0, 0.5}, {10.0, 1.0}}};
  EXPECT_NEAR(cdf.arc_length(10.0), std::sqrt(2.0), 1e-12);
}

TEST(InterpolateWithExtremesTest, AnchorsAtZeroAndOne) {
  const std::vector<CdfPoint> points{{5.0, 0.5}};
  const auto cdf = interpolate_with_extremes(points, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.25);
}

TEST(InterpolateWithExtremesTest, DropsPointsOutsideExtremes) {
  const std::vector<CdfPoint> points{{-3.0, 0.1}, {5.0, 0.5}, {20.0, 0.9}};
  const auto cdf = interpolate_with_extremes(points, 0.0, 10.0);
  EXPECT_EQ(cdf.knots().size(), 3u);  // min anchor, interior, max anchor.
}

// ------------------------------------------------------------- ErrorMetrics

TEST(ErrorMetricsTest, PerfectApproximationHasZeroError) {
  const EmpiricalCdf truth{{0, 10}};
  // Step at 10: below 10 the fraction is 0.5.
  const PiecewiseLinearCdf approx{
      {{0.0, 0.5}, {9.9999999, 0.5}, {10.0, 1.0}}};
  const auto errors = discrete_errors(truth, approx);
  EXPECT_NEAR(errors.max_err, 0.0, 1e-7);
  EXPECT_NEAR(errors.avg_err, 0.0, 1e-7);
}

TEST(ErrorMetricsTest, ClosedFormMatchesBruteForceOnKnownCase) {
  const EmpiricalCdf truth{{0, 5, 5, 10}};
  const PiecewiseLinearCdf approx{{{0.0, 0.0}, {10.0, 1.0}}};
  const auto fast = discrete_errors(truth, approx);
  const auto brute = discrete_errors_brute(truth, approx);
  EXPECT_NEAR(fast.max_err, brute.max_err, 1e-12);
  EXPECT_NEAR(fast.avg_err, brute.avg_err, 1e-12);
}

TEST(ErrorMetricsTest, DegenerateSingleValueDomain) {
  const EmpiricalCdf truth{{42, 42, 42}};
  const PiecewiseLinearCdf approx{{{42.0, 1.0}}};
  const auto errors = discrete_errors(truth, approx);
  EXPECT_DOUBLE_EQ(errors.max_err, 0.0);
  EXPECT_DOUBLE_EQ(errors.avg_err, 0.0);
}

TEST(ErrorMetricsTest, MaximallyWrongApproximation) {
  const EmpiricalCdf truth{{0, 100}};
  // Approximation claiming everything sits at/below 0.
  const PiecewiseLinearCdf approx{{{-1.0, 1.0}, {0.0, 1.0}}};
  const auto errors = discrete_errors(truth, approx);
  EXPECT_NEAR(errors.max_err, 0.5, 1e-12);  // Truth is 0.5 on [0, 99].
}

/// Property sweep: the closed-form evaluator must agree with the brute-force
/// integer scan for random step CDFs and random piecewise approximations.
class ErrorMetricsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ErrorMetricsPropertyTest, ClosedFormMatchesBruteForce) {
  rng::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  // Random population over a smallish domain so brute force stays cheap.
  const std::size_t n = 20 + rng.below(200);
  std::vector<Value> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(rng.range(-300, 300));
  }
  const EmpiricalCdf truth{values};

  // Random approximation: knots at arbitrary (non-integer) positions.
  const std::size_t k = 2 + rng.below(12);
  std::vector<CdfPoint> knots;
  double f = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    f = std::min(1.0, f + rng.uniform() * 0.4);
    knots.push_back({rng.uniform(-350.0, 350.0), f});
  }
  const PiecewiseLinearCdf approx{std::move(knots)};

  const auto fast = discrete_errors(truth, approx);
  const auto brute = discrete_errors_brute(truth, approx);
  EXPECT_NEAR(fast.max_err, brute.max_err, 1e-9);
  EXPECT_NEAR(fast.avg_err, brute.avg_err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCases, ErrorMetricsPropertyTest,
                         ::testing::Range(0, 40));

TEST(ErrorMetricsTest, PointErrorsExactAtTrueFractions) {
  const EmpiricalCdf truth{{1, 2, 3, 4}};
  const std::vector<CdfPoint> points{{1.0, 0.25}, {3.0, 0.75}};
  const auto errors = point_errors(truth, points);
  EXPECT_DOUBLE_EQ(errors.max_err, 0.0);
  EXPECT_DOUBLE_EQ(errors.avg_err, 0.0);
}

TEST(ErrorMetricsTest, PointErrorsMeasuresDeviation) {
  const EmpiricalCdf truth{{1, 2, 3, 4}};
  const std::vector<CdfPoint> points{{1.0, 0.35}, {3.0, 0.75}};
  const auto errors = point_errors(truth, points);
  EXPECT_NEAR(errors.max_err, 0.1, 1e-12);
  EXPECT_NEAR(errors.avg_err, 0.05, 1e-12);
}

TEST(ErrorMetricsTest, PointErrorsEmptyPointsIsZero) {
  const EmpiricalCdf truth{{1, 2}};
  const auto errors = point_errors(truth, {});
  EXPECT_DOUBLE_EQ(errors.max_err, 0.0);
  EXPECT_DOUBLE_EQ(errors.avg_err, 0.0);
}

TEST(ErrorMetricsTest, EstimationErrorsAgainstVerification) {
  const PiecewiseLinearCdf approx{{{0.0, 0.0}, {10.0, 1.0}}};
  // Verification points with exact fractions 0.3 and 0.9 at t=5 and t=8.
  const std::vector<CdfPoint> verification{{5.0, 0.3}, {8.0, 0.9}};
  const auto errors = estimation_errors(approx, verification);
  EXPECT_NEAR(errors.max_err, 0.2, 1e-12);   // |0.5-0.3|
  EXPECT_NEAR(errors.avg_err, 0.15, 1e-12);  // (0.2 + 0.1)/2
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, CompressPreservesTotalWeight) {
  rng::Rng rng(11);
  std::vector<WeightedValue> samples;
  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double w = rng.uniform(0.1, 3.0);
    samples.push_back({rng.uniform(0.0, 100.0), w});
    total += w;
  }
  const auto compressed = compress_equi_depth(std::move(samples), 16);
  ASSERT_LE(compressed.size(), 16u);
  double compressed_total = 0.0;
  for (const WeightedValue& c : compressed) compressed_total += c.weight;
  EXPECT_NEAR(compressed_total, total, 1e-9 * total);
}

TEST(HistogramTest, CompressKeepsCentroidsSortedAndBalanced) {
  std::vector<WeightedValue> samples;
  for (int i = 0; i < 64; ++i) samples.push_back({static_cast<double>(i), 1.0});
  const auto compressed = compress_equi_depth(std::move(samples), 8);
  ASSERT_EQ(compressed.size(), 8u);
  for (std::size_t i = 1; i < compressed.size(); ++i) {
    EXPECT_LE(compressed[i - 1].value, compressed[i].value);
  }
  for (const WeightedValue& c : compressed) {
    EXPECT_NEAR(c.weight, 8.0, 1e-9);
  }
}

TEST(HistogramTest, CompressNoOpWhenUnderCapacity) {
  std::vector<WeightedValue> samples{{1.0, 1.0}, {2.0, 2.0}};
  const auto compressed = compress_equi_depth(samples, 10);
  EXPECT_EQ(compressed, samples);
}

TEST(HistogramTest, CentroidsToCdfMidpointConvention) {
  const std::vector<WeightedValue> centroids{{0.0, 1.0}, {10.0, 1.0}};
  const auto cdf = centroids_to_cdf(centroids);
  EXPECT_DOUBLE_EQ(cdf(0.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(10.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(5.0), 0.5);
}

TEST(HistogramTest, CentroidsToCdfApproximatesUniform) {
  std::vector<WeightedValue> centroids;
  for (int i = 0; i < 100; ++i) {
    centroids.push_back({static_cast<double>(i), 1.0});
  }
  const auto cdf = centroids_to_cdf(centroids);
  EXPECT_NEAR(cdf(49.5), 0.5, 0.01);
}

// ------------------------------------------------------------------ Summary

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(x);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  const RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

}  // namespace
}  // namespace adam2::stats
