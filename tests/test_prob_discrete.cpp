// Tests for discrete distributions and the frequentist counter.
#include "prob/discrete.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "prob/statistics.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace pr = sysuq::prob;

namespace {

// Weights 1, 2, .., k normalized: distinct probabilities, k states.
std::vector<double> ramp(std::size_t k) {
  std::vector<double> p(k);
  const double sum = static_cast<double>(k * (k + 1) / 2);
  for (std::size_t i = 0; i < k; ++i) p[i] = static_cast<double>(i + 1) / sum;
  return p;
}

std::vector<double> probs_of(const pr::Categorical& c) {
  const auto p = c.probs();
  return std::vector<double>(p.begin(), p.end());
}

}  // namespace

TEST(Categorical, ConstructionValidation) {
  EXPECT_NO_THROW(pr::Categorical({0.5, 0.5}));
  EXPECT_THROW(pr::Categorical({0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(pr::Categorical({-0.1, 1.1}), std::invalid_argument);
  EXPECT_THROW(pr::Categorical(std::vector<double>{}), std::invalid_argument);
}

TEST(Categorical, NormalizedFactory) {
  const auto c = pr::Categorical::normalized({2.0, 3.0, 5.0});
  EXPECT_NEAR(c.p(0), 0.2, tol::kTiny);
  EXPECT_NEAR(c.p(2), 0.5, tol::kTiny);
  EXPECT_THROW((void)pr::Categorical::normalized({0.0, 0.0}),
               std::invalid_argument);
}

TEST(Categorical, UniformAndDelta) {
  const auto u = pr::Categorical::uniform(4);
  EXPECT_NEAR(u.entropy(), std::log(4.0), tol::kTiny);
  const auto d = pr::Categorical::delta(2, 4);
  EXPECT_DOUBLE_EQ(d.p(2), 1.0);
  EXPECT_DOUBLE_EQ(d.entropy(), 0.0);
  EXPECT_EQ(d.argmax(), 2u);
  EXPECT_THROW((void)pr::Categorical::delta(4, 4), std::invalid_argument);
}

TEST(Categorical, EntropyMaximalAtUniform) {
  const auto u = pr::Categorical::uniform(5);
  const auto skew = pr::Categorical::normalized({5.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_GT(u.entropy(), skew.entropy());
}

TEST(Categorical, TotalVariation) {
  const pr::Categorical a({0.5, 0.5});
  const pr::Categorical b({0.9, 0.1});
  EXPECT_NEAR(a.total_variation(b), 0.4, tol::kTiny);
  EXPECT_DOUBLE_EQ(a.total_variation(a), 0.0);
  const pr::Categorical c({1.0, 0.0});
  const pr::Categorical d({0.0, 1.0});
  EXPECT_DOUBLE_EQ(c.total_variation(d), 1.0);
}

TEST(Categorical, MixedIsConvexCombination) {
  const pr::Categorical a({1.0, 0.0});
  const pr::Categorical b({0.0, 1.0});
  const auto m = a.mixed(b, 0.25);
  EXPECT_NEAR(m.p(0), 0.75, tol::kTiny);
  EXPECT_NEAR(m.p(1), 0.25, tol::kTiny);
  EXPECT_THROW((void)a.mixed(b, 1.5), std::invalid_argument);
}

TEST(Categorical, SamplingFrequenciesConverge) {
  const auto c = pr::Categorical::normalized({1.0, 2.0, 7.0});
  pr::Rng rng(99);
  std::vector<std::size_t> counts(3, 0);
  const std::size_t n = 50000;
  for (std::size_t i = 0; i < n; ++i) ++counts[c.sample(rng)];
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, c.p(k), 0.01) << k;
  }
}

TEST(Categorical, CopiesAndMovesAcrossInlineAndHeapStorage) {
  // Up to 4 states live inside the object, 5 or more on the heap; every
  // copy, move and assignment, across that boundary too, keeps the
  // probabilities, and a moved-from object is empty but reusable.
  for (std::size_t k = 1; k <= 7; ++k) {
    const pr::Categorical a(ramp(k));
    ASSERT_EQ(a.size(), k);
    EXPECT_EQ(probs_of(a), ramp(k)) << k;

    pr::Categorical copy(a);
    EXPECT_EQ(probs_of(copy), ramp(k)) << k;
    EXPECT_NE(copy.probs().data(), a.probs().data()) << k;

    pr::Categorical moved(std::move(copy));
    EXPECT_EQ(probs_of(moved), ramp(k)) << k;
    EXPECT_EQ(copy.size(), 0u) << k;  // NOLINT(bugprone-use-after-move)
    copy = a;
    EXPECT_EQ(probs_of(copy), ramp(k)) << k;

    pr::Categorical& alias = moved;
    moved = alias;
    EXPECT_EQ(probs_of(moved), ramp(k)) << k;
    moved = std::move(alias);
    EXPECT_EQ(probs_of(moved), ramp(k)) << k;

    for (std::size_t j = 1; j <= 7; ++j) {
      const pr::Categorical b(ramp(j));
      pr::Categorical assigned(a);
      assigned = b;
      EXPECT_EQ(probs_of(assigned), ramp(j)) << k << " <- " << j;
      pr::Categorical source(b);
      pr::Categorical taken(a);
      taken = std::move(source);
      EXPECT_EQ(probs_of(taken), ramp(j)) << k << " <- " << j;
      EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
      source = a;
      EXPECT_EQ(probs_of(source), ramp(k)) << k << " <- " << j;
      pr::Categorical dropped(b);
      { const pr::Categorical sink(std::move(dropped)); }
    }
  }
}

TEST(Categorical, ProbsViewsAnLvalueAndOwnsAnRvalueCopy) {
  static_assert(std::is_same_v<decltype(std::declval<const pr::Categorical&>().probs()),
                               std::span<const double>>);
  static_assert(std::is_same_v<decltype(pr::Categorical::uniform(2).probs()),
                               std::vector<double>>);
  static_assert(std::is_nothrow_move_constructible_v<pr::Categorical>);
  static_assert(std::is_nothrow_move_assignable_v<pr::Categorical>);
  for (std::size_t k = 1; k <= 7; ++k) {
    const std::vector<double> owned = pr::Categorical(ramp(k)).probs();
    EXPECT_EQ(owned, ramp(k)) << k;
    const pr::Categorical c{std::span<const double>(owned)};
    const auto view = c.probs();
    EXPECT_EQ(view.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(view[i], owned[i]) << k;
      EXPECT_EQ(c.p(i), owned[i]) << k;
    }
    EXPECT_THROW((void)c.p(k), std::out_of_range) << k;
  }
}

TEST(Categorical, SampleDrawsTheSameSequenceForAFixedSeed) {
  // Pinned draws for seed 7 (3 states inline, then 6 on the heap); a copy
  // and a moved-to object draw the same sequence as the original.
  const auto small = pr::Categorical::normalized({1.0, 2.0, 7.0});
  const auto large = pr::Categorical::normalized({5.0, 1.0, 0.0, 3.0, 1.0, 2.0});
  const std::vector<std::size_t> want_small{2, 2, 2, 2, 1, 1, 1, 2, 2, 2,
                                            2, 1, 0, 0, 2, 1, 1, 2, 2, 2};
  const std::vector<std::size_t> want_large{0, 0, 3, 0, 0, 3, 3, 0, 4, 0,
                                            3, 0, 5, 3, 3, 3, 0, 5, 1, 3};
  pr::Rng rng(7);
  std::vector<std::size_t> got_small, got_large;
  for (std::size_t i = 0; i < want_small.size(); ++i) got_small.push_back(small.sample(rng));
  for (std::size_t i = 0; i < want_large.size(); ++i) got_large.push_back(large.sample(rng));
  EXPECT_EQ(got_small, want_small);
  EXPECT_EQ(got_large, want_large);

  for (const auto* c : {&small, &large}) {
    const pr::Categorical copy(*c);
    pr::Categorical tmp(*c);
    const pr::Categorical moved(std::move(tmp));
    pr::Rng r0(13), r1(13), r2(13);
    for (int i = 0; i < 200; ++i) {
      const std::size_t x = c->sample(r0);
      EXPECT_EQ(copy.sample(r1), x);
      EXPECT_EQ(moved.sample(r2), x);
    }
  }
}

TEST(Bernoulli, Basics) {
  pr::Bernoulli b(0.3);
  EXPECT_DOUBLE_EQ(b.pmf(true), 0.3);
  EXPECT_DOUBLE_EQ(b.pmf(false), 0.7);
  EXPECT_NEAR(b.entropy(), -0.3 * std::log(0.3) - 0.7 * std::log(0.7), tol::kTiny);
  EXPECT_THROW(pr::Bernoulli(1.5), std::invalid_argument);
  // Degenerate entropy is zero.
  EXPECT_DOUBLE_EQ(pr::Bernoulli(0.0).entropy(), 0.0);
  EXPECT_DOUBLE_EQ(pr::Bernoulli(1.0).entropy(), 0.0);
}

TEST(Binomial, PmfSumsToOneAndMatchesKnown) {
  pr::Binomial b(10, 0.3);
  double sum = 0.0;
  for (std::size_t k = 0; k <= 10; ++k) sum += b.pmf(k);
  EXPECT_NEAR(sum, 1.0, tol::kIteration);
  // P(X=3) for B(10, 0.3) = C(10,3) 0.3^3 0.7^7 ≈ 0.266827932
  EXPECT_NEAR(b.pmf(3), 0.266827932, 1e-8);
  EXPECT_DOUBLE_EQ(b.pmf(11), 0.0);
}

TEST(Binomial, CdfMatchesPartialSums) {
  pr::Binomial b(12, 0.45);
  double acc = 0.0;
  for (std::size_t k = 0; k <= 12; ++k) {
    acc += b.pmf(k);
    EXPECT_NEAR(b.cdf(k), acc, tol::kProbSum) << k;
  }
}

TEST(Binomial, DegenerateP) {
  pr::Binomial zero(5, 0.0);
  EXPECT_DOUBLE_EQ(zero.pmf(0), 1.0);
  EXPECT_DOUBLE_EQ(zero.pmf(1), 0.0);
  pr::Binomial one(5, 1.0);
  EXPECT_DOUBLE_EQ(one.pmf(5), 1.0);
}

TEST(Binomial, SamplingMean) {
  pr::Binomial b(20, 0.25);
  pr::Rng rng(5);
  pr::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(b.sample(rng)));
  EXPECT_NEAR(s.mean(), b.mean(), 0.05);
  EXPECT_NEAR(s.variance(), b.variance(), 0.15);
}

TEST(Poisson, PmfAndCdf) {
  pr::Poisson p(2.5);
  // P(X=0) = exp(-2.5)
  EXPECT_NEAR(p.pmf(0), std::exp(-2.5), tol::kTiny);
  double acc = 0.0;
  for (std::size_t k = 0; k <= 15; ++k) {
    acc += p.pmf(k);
    EXPECT_NEAR(p.cdf(k), acc, tol::kProbSum) << k;
  }
  EXPECT_THROW(pr::Poisson(0.0), std::invalid_argument);
}

TEST(Poisson, SamplingMean) {
  pr::Poisson p(4.0);
  pr::Rng rng(6);
  pr::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(p.sample(rng)));
  EXPECT_NEAR(s.mean(), 4.0, 0.08);
  EXPECT_NEAR(s.variance(), 4.0, 0.25);
}

TEST(CategoricalCounter, MleAndSmoothing) {
  pr::CategoricalCounter c(3);
  EXPECT_THROW((void)c.mle(), std::logic_error);
  c.observe(0, 6);
  c.observe(1, 4);
  const auto mle = c.mle();
  EXPECT_NEAR(mle.p(0), 0.6, tol::kTiny);
  EXPECT_NEAR(mle.p(1), 0.4, tol::kTiny);
  EXPECT_DOUBLE_EQ(mle.p(2), 0.0);
  // Laplace smoothing pulls unseen categories above zero.
  const auto sm = c.smoothed(1.0);
  EXPECT_GT(sm.p(2), 0.0);
  EXPECT_NEAR(sm.p(0), 7.0 / 13.0, tol::kTiny);
}

TEST(CategoricalCounter, UnseenAndMissingMass) {
  pr::CategoricalCounter c(4);
  EXPECT_EQ(c.unseen_categories(), 4u);
  EXPECT_DOUBLE_EQ(c.good_turing_missing_mass(), 1.0);
  c.observe(0, 10);
  c.observe(1, 1);  // singleton
  c.observe(2, 1);  // singleton
  EXPECT_EQ(c.unseen_categories(), 1u);
  // Good-Turing: 2 singletons / 12 observations
  EXPECT_NEAR(c.good_turing_missing_mass(), 2.0 / 12.0, tol::kTiny);
}

TEST(CategoricalCounter, MissingMassDecaysWithSaturation) {
  // Once every category is seen many times, the missing-mass forecast
  // (ontological uncertainty from data) goes to zero.
  pr::CategoricalCounter c(3);
  for (std::size_t i = 0; i < 3; ++i) c.observe(i, 100);
  EXPECT_DOUBLE_EQ(c.good_turing_missing_mass(), 0.0);
  EXPECT_EQ(c.unseen_categories(), 0u);
}
