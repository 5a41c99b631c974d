// Inference tests: the paper's Table I posteriors, joint and surprise
// figures computed exactly by the engine's variable elimination, the MPE
// by enumeration, the engine's VE cross-checked against the enumeration
// oracle on randomized networks, and the sampling engines' convergence.
#include "bayesnet/inference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bayesnet/engine.hpp"
#include "perception/table1.hpp"
#include "prob/information.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// The probabilities as a vector, so an exact comparison prints them.
std::vector<double> probs_of(const pr::Categorical& c) {
  const auto p = c.probs();
  return std::vector<double>(p.begin(), p.end());
}

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

// Table I network with the default repair (unknown row deficit -> none):
// unknown row becomes (0, 0, 0.2, 0.8).
bn::BayesianNetwork paper_network() {
  return sysuq::perception::table1_network();
}

// Random DAG over n binary/ternary variables where each node's parents
// are a random subset of lower-id nodes.
bn::BayesianNetwork random_network(pr::Rng& rng, std::size_t n) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = 2 + rng.uniform_index(2);
    cards.push_back(card);
    std::vector<std::string> states;
    for (std::size_t s = 0; s < card; ++s)
      states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    for (std::size_t j = 0; j < i; ++j) {
      if (rng.bernoulli(0.4)) parents.push_back(j);
    }
    std::size_t rows = 1;
    for (auto p : parents) rows *= cards[p];
    std::vector<pr::Categorical> cpt;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(cards[i]);
      for (double& x : w) x = rng.uniform() + 0.05;
      cpt.push_back(pr::Categorical::normalized(std::move(w)));
    }
    net.set_cpt(i, std::move(parents), std::move(cpt));
  }
  return net;
}

}  // namespace

TEST(Inference, PaperPriorMarginalOfPerception) {
  // P(perception) from (repaired) Table I with priors (0.6, 0.3, 0.1):
  //   car:            0.6*0.9   + 0.3*0.005 + 0.1*0    = 0.5415
  //   pedestrian:     0.6*0.005 + 0.3*0.9   + 0.1*0    = 0.273
  //   car/pedestrian: 0.6*0.05  + 0.3*0.05  + 0.1*0.2  = 0.065
  //   none:           0.6*0.045 + 0.3*0.045 + 0.1*0.8  = 0.1205
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto m = ve.query(net.id_of("perception"));
  EXPECT_NEAR(m.p(0), 0.5415, tol::kTiny);
  EXPECT_NEAR(m.p(1), 0.273, tol::kTiny);
  EXPECT_NEAR(m.p(2), 0.065, tol::kTiny);
  EXPECT_NEAR(m.p(3), 0.1205, tol::kTiny);
}

TEST(Inference, PaperPosteriorGivenNone) {
  // P(gt | perception = none): unknown objects dominate "none" outputs
  // relative to their 10% prior — the ontological state is surfaced by
  // diagnosis. P(unknown|none) = 0.08/0.1205.
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const bn::Evidence e{{net.id_of("perception"), 3}};
  const auto post = ve.query(net.id_of("ground_truth"), e);
  EXPECT_NEAR(post.p(0), 0.027 / 0.1205, tol::kTiny);
  EXPECT_NEAR(post.p(1), 0.0135 / 0.1205, tol::kTiny);
  EXPECT_NEAR(post.p(2), 0.08 / 0.1205, tol::kTiny);
  // The unknown state is the most probable explanation of 'none'.
  EXPECT_EQ(post.argmax(), 2u);
}

TEST(Inference, PaperPosteriorGivenCarPedestrian) {
  // The car/pedestrian output is the *epistemic* indicator state.
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const bn::Evidence e{{net.id_of("perception"), 2}};
  const auto post = ve.query(net.id_of("ground_truth"), e);
  EXPECT_NEAR(post.p(0), 0.03 / 0.065, tol::kTiny);
  EXPECT_NEAR(post.p(1), 0.015 / 0.065, tol::kTiny);
  EXPECT_NEAR(post.p(2), 0.02 / 0.065, tol::kTiny);
}

TEST(Inference, EvidenceProbability) {
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  EXPECT_NEAR(ve.evidence_probability({{1, 3}}), 0.1205, tol::kTiny);
  EXPECT_NEAR(ve.evidence_probability({{0, 2}, {1, 0}}), 0.0, tol::kTiny);
  EXPECT_NEAR(ve.evidence_probability({}), 1.0, tol::kTiny);
}

TEST(Inference, ZeroProbabilityEvidenceThrows) {
  // Chain a -> b -> c where state b=1 is unreachable; querying c given the
  // impossible evidence must fail loudly rather than return garbage.
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  net.set_cpt(c, {b},
              {pr::Categorical({0.5, 0.5}), pr::Categorical({0.5, 0.5})});
  const bn::InferenceEngine ve(net, kExact);
  EXPECT_THROW((void)ve.query(c, {{b, 1}}), std::domain_error);
  EXPECT_NEAR(ve.evidence_probability({{b, 1}}), 0.0, tol::kSeries);
}

TEST(Inference, QueryObservedVariableReturnsDelta) {
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto d = ve.query(0, {{0, 1}});
  EXPECT_DOUBLE_EQ(d.p(1), 1.0);
}

TEST(Inference, JointMatchesCptComposition) {
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto joint = ve.joint(0, 1);
  EXPECT_NEAR(joint.p(0, 0), 0.6 * 0.9, tol::kTiny);
  // Marginals recover prior and output distribution.
  EXPECT_NEAR(joint.marginal_x().p(0), 0.6, tol::kTiny);
  EXPECT_NEAR(joint.p(2, 3), 0.1 * 0.8, tol::kTiny);
  EXPECT_NEAR(joint.marginal_y().p(3), 0.1205, tol::kTiny);
  EXPECT_THROW((void)ve.joint(0, 0), std::invalid_argument);
  EXPECT_THROW((void)ve.joint(0, 1, {{1, 0}}), std::invalid_argument);
}

TEST(Inference, VariableEliminationMatchesEnumerationOracle) {
  // Property: on randomized DAGs, the engine's VE == brute-force
  // enumeration for all query variables and several evidence choices.
  pr::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const auto net = random_network(rng, 5 + rng.uniform_index(2));
    const bn::InferenceEngine ve(net, kExact);

    // No evidence.
    for (bn::VariableId q = 0; q < net.size(); ++q) {
      const auto exact = bn::enumerate_posterior(net, q);
      const auto fast = ve.query(q);
      for (std::size_t s = 0; s < exact.size(); ++s)
        ASSERT_NEAR(fast.p(s), exact.p(s), tol::kProbSum) << "trial " << trial;
    }

    // One random evidence variable.
    const bn::VariableId ev = rng.uniform_index(net.size());
    const std::size_t state = rng.uniform_index(net.variable(ev).cardinality());
    if (bn::enumerate_evidence_probability(net, {{ev, state}}) > tol::kProbSum) {
      for (bn::VariableId q = 0; q < net.size(); ++q) {
        if (q == ev) continue;
        const auto exact = bn::enumerate_posterior(net, q, {{ev, state}});
        const auto fast = ve.query(q, {{ev, state}});
        for (std::size_t s = 0; s < exact.size(); ++s)
          ASSERT_NEAR(fast.p(s), exact.p(s), tol::kProbSum) << "trial " << trial;
      }
      // Evidence probability agrees too.
      ASSERT_NEAR(ve.evidence_probability({{ev, state}}),
                  bn::enumerate_evidence_probability(net, {{ev, state}}), tol::kProbSum);
    }
  }
}

TEST(Inference, LikelihoodWeightingConverges) {
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const bn::Evidence e{{1, 3}};
  const auto exact = ve.query(0, e);
  pr::Rng rng(314);
  const auto approx = bn::likelihood_weighting(net, 0, e, 200000, rng);
  for (std::size_t s = 0; s < exact.size(); ++s)
    EXPECT_NEAR(approx.p(s), exact.p(s), 0.01) << s;
}

TEST(Inference, RejectionSamplingConvergesAndReportsAcceptance) {
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const bn::Evidence e{{1, 3}};
  const auto exact = ve.query(0, e);
  pr::Rng rng(2718);
  std::size_t accepted = 0;
  const auto approx = bn::rejection_sampling(net, 0, e, 300000, rng, &accepted);
  // Acceptance rate should be near P(e) = 0.1205.
  EXPECT_NEAR(static_cast<double>(accepted) / 300000.0, 0.1205, 0.005);
  for (std::size_t s = 0; s < exact.size(); ++s)
    EXPECT_NEAR(approx.p(s), exact.p(s), 0.02) << s;

  // Draw for draw the samples of `net.sample` under the same seed: the
  // same accepted count and per-state counts.
  pr::Rng replay(2718);
  std::vector<double> counts(exact.size(), 0.0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < 300000; ++i) {
    const auto state = net.sample(replay);
    if (state[1] != 3) continue;
    counts[state[0]] += 1.0;
    ++kept;
  }
  EXPECT_EQ(accepted, kept);
  for (std::size_t s = 0; s < exact.size(); ++s)
    EXPECT_EQ(std::round(approx.p(s) * static_cast<double>(accepted)), counts[s]) << s;
  EXPECT_EQ(probs_of(approx), pr::Categorical::normalized(counts).probs());
}

TEST(Inference, SamplersRejectZeroSamples) {
  const auto net = paper_network();
  pr::Rng rng(1);
  EXPECT_THROW((void)bn::likelihood_weighting(net, 0, {}, 0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)bn::rejection_sampling(net, 0, {}, 0, rng),
               std::invalid_argument);
}

TEST(Inference, RejectionSamplingImpossibleEvidenceThrows) {
  const auto net = paper_network();
  pr::Rng rng(9);
  const bn::Evidence impossible{{0, 2}, {1, 0}};
  EXPECT_THROW((void)bn::rejection_sampling(net, 0, impossible, 1000, rng),
               std::domain_error);
}

TEST(Inference, ConditionalEntropySurpriseOnPaperNetwork) {
  // The conditional entropy H(ground_truth | perception) quantifies the
  // residual uncertainty after observing the perception output — the
  // paper's surprise-factor formalization applied to its own example.
  const auto net = paper_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto joint = ve.joint(0, 1);
  const double h_prior = joint.marginal_x().entropy();
  const double h_post = pr::conditional_entropy_x_given_y(joint);
  EXPECT_GT(h_prior, h_post);           // perception is informative
  EXPECT_GT(pr::mutual_information(joint), 0.4);
  EXPECT_LT(h_post, 0.5);
}

TEST(Inference, MpeOnPaperNetwork) {
  const auto net = paper_network();
  // Unconditional MPE: the single most likely world is (car, car):
  // 0.6 * 0.9 = 0.54.
  const auto mpe = bn::enumerate_mpe(net);
  EXPECT_EQ(mpe.assignment[0], 0u);
  EXPECT_EQ(mpe.assignment[1], 0u);
  EXPECT_NEAR(mpe.probability, 0.54, tol::kTiny);
  // Given perception = none, the MPE ground truth is unknown:
  // P(unknown, none) = 0.08; conditional = 0.08 / 0.1205.
  const auto diag = bn::enumerate_mpe(net, {{1, 3}});
  EXPECT_EQ(diag.assignment[0], 2u);
  EXPECT_NEAR(diag.probability, 0.08 / 0.1205, tol::kTiny);
}

TEST(Inference, MpeImpossibleEvidenceThrows) {
  const auto net = paper_network();
  // gt = unknown AND perception = car has probability zero.
  EXPECT_THROW((void)bn::enumerate_mpe(net, {{0, 2}, {1, 0}}),
               std::domain_error);
}

TEST(Inference, MpeDiffersFromMarginalModes) {
  // Classic MPE lesson: the jointly most probable assignment need not be
  // the product of marginal argmaxes. x uniform-ish; y anti-correlated.
  bn::BayesianNetwork net;
  const auto x = net.add_variable("x", {"0", "1", "2"});
  const auto y = net.add_variable("y", {"0", "1"});
  net.set_cpt(x, {}, {pr::Categorical({0.36, 0.34, 0.30})});
  net.set_cpt(y, {x},
              {pr::Categorical({0.1, 0.9}), pr::Categorical({0.9, 0.1}),
               pr::Categorical({0.9, 0.1})});
  const auto mpe = bn::enumerate_mpe(net);
  // Joint maxima: (0,1): 0.324; (1,0): 0.306; (2,0): 0.27 -> MPE (0,1).
  EXPECT_EQ(mpe.assignment[x], 0u);
  EXPECT_EQ(mpe.assignment[y], 1u);
  // Marginal mode of y is 0 (P(y=0) = 0.036 + 0.306 + 0.27 = 0.612).
  const bn::InferenceEngine ve(net, kExact);
  EXPECT_EQ(ve.query(y).argmax(), 0u);
}
