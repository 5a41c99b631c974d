// Tests for compact CPT builders (noisy-OR, ranked nodes) and Bayesian
// CPT learning (the uncertainty-removal engine).
#include <gtest/gtest.h>

#include <cmath>

#include "bayesnet/builders.hpp"
#include "bayesnet/learning.hpp"
#include "bayesnet/network.hpp"
#include "perception/table1.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

TEST(NoisyOr, TwoParentKnownValues) {
  const auto rows = bn::noisy_or_cpt({0.8, 0.6});
  ASSERT_EQ(rows.size(), 4u);
  // Rows ordered with last parent fastest: (0,0), (0,1), (1,0), (1,1).
  EXPECT_NEAR(rows[0].p(1), 0.0, tol::kTiny);                    // neither active
  EXPECT_NEAR(rows[1].p(1), 0.6, tol::kTiny);                    // only parent 2
  EXPECT_NEAR(rows[2].p(1), 0.8, tol::kTiny);                    // only parent 1
  EXPECT_NEAR(rows[3].p(1), 1.0 - 0.2 * 0.4, tol::kTiny);        // both
}

TEST(NoisyOr, LeakFloorsActivation) {
  const auto rows = bn::noisy_or_cpt({0.5}, 0.1);
  EXPECT_NEAR(rows[0].p(1), 0.1, tol::kTiny);
  EXPECT_NEAR(rows[1].p(1), 1.0 - 0.9 * 0.5, tol::kTiny);
}

TEST(NoisyOr, Validation) {
  EXPECT_THROW((void)bn::noisy_or_cpt({}), std::invalid_argument);
  EXPECT_THROW((void)bn::noisy_or_cpt({1.2}), std::invalid_argument);
  EXPECT_THROW((void)bn::noisy_or_cpt({0.5}, -0.1), std::invalid_argument);
  // 2^64 rows overflow size_t (a shift by 64 is undefined behaviour).
  EXPECT_THROW((void)bn::noisy_or_cpt(std::vector<double>(64, 0.3)),
               std::invalid_argument);
}

TEST(NoisyOr, ParameterCompression) {
  // 10 binary parents: full CPT needs 1024 rows; noisy-OR needs 11 numbers.
  const std::vector<double> links(10, 0.3);
  const auto rows = bn::noisy_or_cpt(links);
  EXPECT_EQ(rows.size(), 1024u);
  EXPECT_EQ(bn::full_cpt_parameter_count(std::vector<std::size_t>(10, 2), 2),
            1024u);
  // Counts past size_t throw instead of wrapping: 2^64 rows, and 2^63
  // rows times k - 1 = 2 parameters.
  EXPECT_THROW((void)bn::full_cpt_parameter_count(std::vector<std::size_t>(64, 2), 2),
               std::invalid_argument);
  EXPECT_THROW((void)bn::full_cpt_parameter_count(std::vector<std::size_t>(63, 2), 3),
               std::invalid_argument);
  EXPECT_EQ(bn::full_cpt_parameter_count(std::vector<std::size_t>(63, 2), 2),
            std::size_t{1} << 63);
  // Monotone: more active parents, higher activation.
  EXPECT_LT(rows[0].p(1), rows[1].p(1));
  EXPECT_LT(rows[1].p(1), rows[3].p(1));
  EXPECT_LT(rows[3].p(1), rows[1023].p(1));
}

TEST(RankedNode, RowsAreValidAndMonotone) {
  const auto rows = bn::ranked_node_cpt({3, 3}, {1.0, 1.0}, 5, 0.15);
  ASSERT_EQ(rows.size(), 9u);
  // Low-rank parents push the child low; high-rank parents push it high.
  const auto& low = rows[0];   // parents (0,0)
  const auto& high = rows[8];  // parents (2,2)
  EXPECT_LT(low.argmax(), high.argmax());
  // Expected child rank increases along the parent diagonal.
  const auto mean_rank = [](const pr::Categorical& c) {
    double m = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      m += static_cast<double>(i) * c.p(i);
    return m;
  };
  EXPECT_LT(mean_rank(rows[0]), mean_rank(rows[4]));
  EXPECT_LT(mean_rank(rows[4]), mean_rank(rows[8]));
}

TEST(RankedNode, WeightsBiasTowardHeavierParent) {
  // Parent 0 dominant: configuration (high, low) should sit higher than
  // (low, high).
  const auto rows = bn::ranked_node_cpt({2, 2}, {5.0, 1.0}, 5, 0.1);
  const auto mean_rank = [](const pr::Categorical& c) {
    double m = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      m += static_cast<double>(i) * c.p(i);
    return m;
  };
  // Rows: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3.
  EXPECT_GT(mean_rank(rows[2]), mean_rank(rows[1]));
}

TEST(RankedNode, SigmaControlsSharpness) {
  const auto sharp = bn::ranked_node_cpt({3}, {1.0}, 5, 0.05);
  const auto diffuse = bn::ranked_node_cpt({3}, {1.0}, 5, 0.5);
  EXPECT_LT(sharp[0].entropy(), diffuse[0].entropy());
}

TEST(RankedNode, Validation) {
  EXPECT_THROW((void)bn::ranked_node_cpt({}, {}, 3, 0.1), std::invalid_argument);
  EXPECT_THROW((void)bn::ranked_node_cpt({3}, {1.0, 2.0}, 3, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)bn::ranked_node_cpt({3}, {1.0}, 1, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)bn::ranked_node_cpt({3}, {1.0}, 3, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)bn::ranked_node_cpt({3}, {0.0}, 3, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)bn::ranked_node_cpt({1}, {1.0}, 3, 0.1),
               std::invalid_argument);
  // 64 binary parents: 2^64 rows overflow size_t.
  EXPECT_THROW((void)bn::ranked_node_cpt(std::vector<std::size_t>(64, 2),
                                         std::vector<double>(64, 1.0), 3, 0.1),
               std::invalid_argument);
}

namespace {

bn::BayesianNetwork paper_network() {
  return sysuq::perception::table1_network();
}

}  // namespace

TEST(CptLearner, RecoversTrueCptFromSamples) {
  // Field observation: sample the true network, learn the perception CPT,
  // and check the posterior mean converges to Table I.
  const auto net = paper_network();
  bn::CptLearner learner(net, 1, 1.0);
  pr::Rng rng(555);
  for (int i = 0; i < 60000; ++i) learner.observe(net.sample(rng));
  const auto rows = learner.posterior_mean_rows();
  EXPECT_NEAR(rows[0].p(0), 0.9, 0.01);
  EXPECT_NEAR(rows[1].p(1), 0.9, 0.01);
  EXPECT_NEAR(rows[2].p(3), 0.8, 0.03);
  EXPECT_NEAR(rows[2].p(0), 0.0, 0.01);
}

TEST(CptLearner, EpistemicWidthShrinksMonotonically) {
  // The paper's central Sec. III.B claim, at the CPT level: "our knowledge
  // increases and the epistemic uncertainty decreases with every
  // observation" (in expectation; we check at exponentially spaced
  // checkpoints).
  const auto net = paper_network();
  bn::CptLearner learner(net, 1, 1.0);
  pr::Rng rng(777);
  double prev = learner.epistemic_width();
  EXPECT_GT(prev, 0.5);  // prior near-ignorance
  for (int checkpoint = 0; checkpoint < 5; ++checkpoint) {
    for (int i = 0; i < 200 * (1 << checkpoint); ++i)
      learner.observe(net.sample(rng));
    const double w = learner.epistemic_width();
    EXPECT_LT(w, prev);
    prev = w;
  }
  EXPECT_LT(prev, 0.1);
}

TEST(CptLearner, CommitWritesPosteriorMean) {
  auto net = paper_network();
  bn::CptLearner learner(net, 0, 1.0);
  pr::Rng rng(888);
  const auto truth = paper_network();
  for (int i = 0; i < 30000; ++i) learner.observe(truth.sample(rng));
  learner.commit(net);
  const auto prior = net.cpt_rows(0)[0];
  EXPECT_NEAR(prior.p(0), 0.6, 0.01);
  EXPECT_NEAR(prior.p(2), 0.1, 0.01);
}

TEST(CptLearner, RowPosteriorTracksOnlyMatchingConfigs) {
  const auto net = paper_network();
  bn::CptLearner learner(net, 1, 1.0);
  // Observe one (gt=unknown, perception=none) event.
  learner.observe({2, 3});
  EXPECT_EQ(learner.observation_count(), 1u);
  EXPECT_EQ(learner.row_count(), 3u);
  // Row 2 gained a pseudo-count; rows 0 and 1 kept the prior.
  EXPECT_DOUBLE_EQ(learner.row_posterior(2).total_concentration(), 5.0);
  EXPECT_DOUBLE_EQ(learner.row_posterior(0).total_concentration(), 4.0);
  EXPECT_THROW((void)learner.row_posterior(3), std::out_of_range);
}

TEST(CptLearner, Validation) {
  const auto net = paper_network();
  EXPECT_THROW(bn::CptLearner(net, 0, 0.0), std::invalid_argument);
  bn::CptLearner learner(net, 1, 1.0);
  EXPECT_THROW(learner.observe({0, 9}), std::out_of_range);
  EXPECT_THROW(learner.observe({5, 0}), std::out_of_range);
}
