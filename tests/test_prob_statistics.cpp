// Tests for running statistics, quantiles, Wilson intervals, histograms.
#include "prob/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "prob/histogram.hpp"
#include "prob/rng.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace pr = sysuq::prob;

TEST(RunningStats, ExactSmallSample) {
  pr::RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, tol::kTiny);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyBehaviour) {
  pr::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.max(), std::logic_error);
}

TEST(RunningStats, MergeEqualsSequential) {
  pr::Rng rng(123);
  pr::RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), tol::kIteration);
  EXPECT_NEAR(a.variance(), whole.variance(), tol::kProbSum);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  pr::RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  pr::RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean);
  EXPECT_EQ(c.count(), 2u);
}

TEST(RunningStats, ConfidenceIntervalCoversMean) {
  // Empirical coverage of the 95% CI over repeated experiments.
  pr::Rng rng(321);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    pr::RunningStats s;
    for (int i = 0; i < 100; ++i) s.add(rng.gaussian(10.0, 3.0));
    const auto [lo, hi] = s.mean_confidence_interval(0.05);
    if (lo <= 10.0 && 10.0 <= hi) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

TEST(Quantile, KnownValues) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(pr::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pr::quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(pr::quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(pr::quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(pr::quantile({7.0}, 0.3), 7.0);
  EXPECT_THROW((void)pr::quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)pr::quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(WilsonInterval, BasicsAndEdges) {
  const auto [lo, hi] = pr::wilson_interval(50, 100);
  EXPECT_LT(lo, 0.5);
  EXPECT_GT(hi, 0.5);
  EXPECT_GT(lo, 0.39);
  EXPECT_LT(hi, 0.61);
  // Zero successes: the lower bound is exactly zero, upper positive.
  const auto [l0, h0] = pr::wilson_interval(0, 100);
  EXPECT_DOUBLE_EQ(l0, 0.0);
  EXPECT_GT(h0, 0.0);
  EXPECT_LT(h0, 0.06);
  // All successes mirrors.
  const auto [l1, h1] = pr::wilson_interval(100, 100);
  EXPECT_DOUBLE_EQ(h1, 1.0);
  EXPECT_GT(l1, 0.94);
  EXPECT_THROW((void)pr::wilson_interval(5, 0), std::invalid_argument);
  EXPECT_THROW((void)pr::wilson_interval(5, 4), std::invalid_argument);
}

TEST(WilsonInterval, ShrinksWithN) {
  const auto [lo1, hi1] = pr::wilson_interval(8, 10);
  const auto [lo2, hi2] = pr::wilson_interval(80, 100);
  const auto [lo3, hi3] = pr::wilson_interval(800, 1000);
  EXPECT_GT(hi1 - lo1, hi2 - lo2);
  EXPECT_GT(hi2 - lo2, hi3 - lo3);
}

TEST(PearsonCorrelation, Extremes) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pr::pearson_correlation(x, y), 1.0, tol::kTiny);
  std::vector<double> yneg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pr::pearson_correlation(x, yneg), -1.0, tol::kTiny);
  EXPECT_THROW((void)pr::pearson_correlation(x, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)pr::pearson_correlation({1, 1, 1}, {1, 2, 3}),
               std::invalid_argument);
}

TEST(Histogram1D, BinningAndProbabilities) {
  pr::Histogram1D h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(h.count(i), 1u);
    EXPECT_NEAR(h.probability(i), 0.1, tol::kTiny);
    EXPECT_NEAR(h.density(i), 0.1, tol::kTiny);
  }
  h.add(-1.0);
  h.add(10.0);  // hi is exclusive
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.bin_center(0), 0.5, tol::kTiny);
}

TEST(Histogram1D, DistributionMatchesCounts) {
  pr::Histogram1D h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.1);
  h.add(0.6);
  const auto d = h.distribution();
  EXPECT_NEAR(d.p(0), 2.0 / 3.0, tol::kTiny);
  EXPECT_NEAR(d.p(2), 1.0 / 3.0, tol::kTiny);
}

TEST(Histogram2D, FrameProbabilityExactCells) {
  pr::Histogram2D h(0.0, 2.0, 2, 0.0, 2.0, 2);
  h.add(0.5, 0.5);   // cell (0,0)
  h.add(1.5, 0.5);   // cell (1,0)
  h.add(1.5, 1.5);   // cell (1,1)
  h.add(1.5, 1.5);   // cell (1,1)
  EXPECT_EQ(h.total(), 4u);
  EXPECT_NEAR(h.probability(1, 1), 0.5, tol::kTiny);
  // Whole domain has probability 1.
  EXPECT_NEAR(h.frame_probability(0.0, 2.0, 0.0, 2.0), 1.0, tol::kTiny);
  // Right column only.
  EXPECT_NEAR(h.frame_probability(1.0, 2.0, 0.0, 2.0), 0.75, tol::kTiny);
  // Half of cell (0,0) in x: area-fraction weighting.
  EXPECT_NEAR(h.frame_probability(0.0, 0.5, 0.0, 1.0), 0.125, tol::kTiny);
}

TEST(Histogram2D, OutsideCounting) {
  pr::Histogram2D h(0.0, 1.0, 2, 0.0, 1.0, 2);
  h.add(2.0, 0.5);
  h.add(0.5, -0.1);
  EXPECT_EQ(h.outside(), 2u);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_THROW((void)h.probability(0, 0), std::logic_error);
}

TEST(Histogram2D, TotalVariationOfIdenticalIsZero) {
  pr::Histogram2D a(0.0, 1.0, 3, 0.0, 1.0, 3);
  pr::Histogram2D b(0.0, 1.0, 3, 0.0, 1.0, 3);
  pr::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    a.add(x, y);
    b.add(x, y);
  }
  EXPECT_DOUBLE_EQ(a.total_variation(b), 0.0);
  // Shifted distribution has positive TV.
  pr::Histogram2D c(0.0, 1.0, 3, 0.0, 1.0, 3);
  for (int i = 0; i < 300; ++i) c.add(rng.uniform() * 0.3, rng.uniform() * 0.3);
  EXPECT_GT(a.total_variation(c), 0.3);
}

TEST(Rng, DeterministicAndSplit) {
  pr::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  // Splitting produces a decorrelated but deterministic child.
  pr::Rng p1(7), p2(7);
  pr::Rng c1 = p1.split(1);
  pr::Rng c2 = p2.split(1);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  pr::Rng d1 = p1.split(2);
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    if (c1.uniform() != d1.uniform()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, CategoricalValidation) {
  pr::Rng rng(1);
  EXPECT_THROW((void)rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)rng.categorical({-1.0, 2.0}), std::invalid_argument);
  EXPECT_EQ(rng.categorical({0.0, 5.0, 0.0}), 1u);
}

TEST(Rng, CategoricalNeverDrawsAZeroWeightCategory) {
  // At u = 1 - 2^-53, u * total rounds above every running sum of these
  // weights, so the subtraction loop falls through; the draw belongs to
  // the last category with mass (2), not the trailing zero-weight one.
  const std::vector<double> w{0.25365578249561005, 0.11128590160513678,
                              0.6350583158992531, 0.0};
  EXPECT_EQ(pr::categorical_index(w, 1.0 - 0x1p-53), 2u);
  EXPECT_EQ(pr::categorical_index(w, 1.0 - 0x1p-52), 2u);
  EXPECT_EQ(pr::categorical_index(w, 0.0), 0u);
  EXPECT_EQ(pr::categorical_index(std::vector<double>{0.0, 1.0, 0.0}, 1.0 - 0x1p-53), 1u);
  EXPECT_THROW((void)pr::categorical_index(w, 1.0), std::invalid_argument);
  EXPECT_THROW((void)pr::categorical_index(w, -0.25), std::invalid_argument);
  EXPECT_THROW((void)pr::categorical_index(std::vector<double>{0.0, 0.0}, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)pr::categorical_index(std::vector<double>{-1.0, 2.0}, 0.5),
               std::invalid_argument);
  // Rng::categorical draws categorical_index of its uniform draw.
  pr::Rng a(11), b(11);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.categorical(w), pr::categorical_index(w, b.uniform()));
}

TEST(Rng, BernoulliExtremes) {
  pr::Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW((void)rng.bernoulli(-0.1), std::invalid_argument);
}
