// MDP tests (optimal policies for hazard bounding) and BN serialization
// round trips.
#include <gtest/gtest.h>

#include <cmath>

#include "bayesnet/engine.hpp"
#include "bayesnet/serialize.hpp"
#include "evidence/mass.hpp"
#include "markov/mdp.hpp"
#include "perception/table1.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace mk = sysuq::markov;
namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

// Degraded-mode supervisor MDP: in `degraded` the controller can either
// `continue` (risky, keeps service) or `mrm` (safe, ends service).
mk::Mdp supervisor() {
  mk::Mdp m;
  const auto nominal = m.add_state("nominal");
  const auto degraded = m.add_state("degraded");
  const auto safe = m.add_state("safe");
  const auto hazard = m.add_state("hazard");
  (void)m.add_action(nominal, "drive",
                     {{nominal, 0.98}, {degraded, 0.02}});
  (void)m.add_action(degraded, "continue",
                     {{nominal, 0.65}, {degraded, 0.25}, {hazard, 0.10}});
  (void)m.add_action(degraded, "mrm", {{safe, 0.95}, {hazard, 0.05}});
  (void)m.add_action(safe, "stay", {{safe, 1.0}});
  (void)m.add_action(hazard, "stay", {{hazard, 1.0}});
  return m;
}

}  // namespace

TEST(Mdp, ConstructionValidation) {
  mk::Mdp m;
  const auto a = m.add_state("a");
  EXPECT_THROW((void)m.add_state("a"), std::invalid_argument);
  EXPECT_THROW((void)m.add_action(7, "x", {{a, 1.0}}), std::out_of_range);
  EXPECT_THROW((void)m.add_action(a, "x", {{a, 0.5}}), std::invalid_argument);
  EXPECT_THROW((void)m.add_action(a, "", {{a, 1.0}}), std::invalid_argument);
  EXPECT_THROW(m.validate(), std::logic_error);  // no actions yet
  (void)m.add_action(a, "loop", {{a, 1.0}});
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.action_count(a), 1u);
  EXPECT_EQ(m.action_name(a, 0), "loop");
  EXPECT_THROW((void)m.action_name(a, 3), std::out_of_range);
}

TEST(Mdp, MinHazardPolicyChoosesMrm) {
  const auto m = supervisor();
  const auto hazard = m.id_of("hazard");
  const auto degraded = m.id_of("degraded");

  const auto min_reach = m.reachability({hazard}, /*maximize=*/false);
  const auto max_reach = m.reachability({hazard}, /*maximize=*/true);
  // The risk-averse policy bounds hazard well below the risk-seeking one.
  EXPECT_LT(min_reach[degraded], max_reach[degraded]);
  // Min policy from degraded: mrm gives exactly 0.05.
  EXPECT_NEAR(min_reach[degraded], 0.05, tol::kProbSum);
  // Max (adversarial) policy keeps continuing: from degraded,
  // x = 0.10 + 0.65 x_n + 0.25 x; x_n = x (nominal always re-enters
  // degraded eventually) -> x = 1.
  EXPECT_NEAR(max_reach[degraded], 1.0, 1e-6);

  const auto policy = m.optimal_policy({hazard}, false);
  EXPECT_EQ(m.action_name(degraded, policy[degraded]), "mrm");
}

TEST(Mdp, BoundedValuesMonotoneAndBracketed) {
  const auto m = supervisor();
  const auto hazard = m.id_of("hazard");
  const auto nominal = m.id_of("nominal");
  double prev_min = -1.0, prev_max = -1.0;
  for (const std::size_t k : {1u, 10u, 100u, 1000u}) {
    const double lo = m.bounded_reachability({hazard}, k, false)[nominal];
    const double hi = m.bounded_reachability({hazard}, k, true)[nominal];
    EXPECT_LE(lo, hi + tol::kTiny);
    EXPECT_GE(lo, prev_min);
    EXPECT_GE(hi, prev_max);
    prev_min = lo;
    prev_max = hi;
  }
}

TEST(Mdp, InducedChainMatchesPolicyValue) {
  const auto m = supervisor();
  const auto hazard = m.id_of("hazard");
  const auto policy = m.optimal_policy({hazard}, false);
  const auto chain = m.induced_chain(policy);
  const auto chain_reach = chain.reachability({hazard});
  const auto mdp_reach = m.reachability({hazard}, false);
  for (mk::StateId s = 0; s < m.size(); ++s) {
    EXPECT_NEAR(chain_reach[s], mdp_reach[s], 1e-8) << s;
  }
  EXPECT_THROW((void)m.induced_chain({0}), std::invalid_argument);
}

TEST(Serialize, RoundTripTable1) {
  const auto net = sysuq::perception::table1_network();
  const auto text = bn::to_text(net);
  const auto back = bn::from_text(text);
  ASSERT_EQ(back.size(), net.size());
  // Structure preserved.
  EXPECT_EQ(back.id_of("perception"), net.id_of("perception"));
  EXPECT_EQ(back.parents(1), net.parents(1));
  // Probabilities preserved exactly (17 significant digits).
  const bn::InferenceEngine ve1(net, kExact);
  const bn::InferenceEngine ve2(back, kExact);
  const auto a = ve1.query(0, {{1, 3}});
  const auto b = ve2.query(0, {{1, 3}});
  for (std::size_t s = 0; s < a.size(); ++s)
    EXPECT_DOUBLE_EQ(a.p(s), b.p(s));
}

TEST(Serialize, RoundTripMultiParent) {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"a0", "a1"});
  const auto b = net.add_variable("b", {"b0", "b1", "b2"});
  const auto c = net.add_variable("c", {"c0", "c1"});
  net.set_cpt(a, {}, {pr::Categorical({0.25, 0.75})});
  net.set_cpt(b, {}, {pr::Categorical({0.2, 0.3, 0.5})});
  std::vector<pr::Categorical> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back(pr::Categorical::normalized(
        {1.0 + i, 2.0 + i}));
  }
  net.set_cpt(c, {a, b}, rows);
  const auto back = bn::from_text(bn::to_text(net));
  EXPECT_EQ(back.parents(2), (std::vector<bn::VariableId>{0, 1}));
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_DOUBLE_EQ(back.cpt_rows(2)[r].p(0), net.cpt_rows(2)[r].p(0)) << r;
  }
}

TEST(Serialize, CommentsAndWhitespaceTolerated) {
  const std::string text = R"(
# a comment
sysuq-bayesnet 1

variable coin heads tails   # inline comment
cpt coin |
0.5 0.5
)";
  const auto net = bn::from_text(text);
  EXPECT_EQ(net.size(), 1u);
  EXPECT_DOUBLE_EQ(net.cpt_rows(0)[0].p(0), 0.5);
}

TEST(Serialize, MalformedInputsRejectedWithLineNumbers) {
  const auto expect_fail = [](const std::string& text, const char* needle) {
    try {
      (void)bn::from_text(text);
      FAIL() << "expected failure for: " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << needle;
    }
  };
  expect_fail("nonsense", "bad header");
  expect_fail("sysuq-bayesnet 2\n", "bad version");
  expect_fail("sysuq-bayesnet 1\nvariable x a\n", "one state");
  expect_fail("sysuq-bayesnet 1\nvariable x a b\ncpt x |\n0.5 0.6\n",
              "unnormalized row");
  expect_fail("sysuq-bayesnet 1\nvariable x a b\ncpt y |\n0.5 0.5\n",
              "unknown child");
  expect_fail("sysuq-bayesnet 1\nvariable x a b\ncpt x |\n0.5\n",
              "short row");
  expect_fail("sysuq-bayesnet 1\nvariable x a b\nfrobnicate\n",
              "unknown directive");
  // 64 binary parents: 2^64 rows wrap size_t to 0, and zero rows must
  // not pass for them.
  std::string wide = "sysuq-bayesnet 1\nvariable c a b\n";
  std::string roots, parents;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "p" + std::to_string(i);
    wide += "variable " + name + " a b\n";
    roots += "cpt " + name + " |\n0.5 0.5\n";
    parents += " " + name;
  }
  expect_fail(wide + roots + "cpt c |" + parents + "\n", "wrapped row count");
  // Missing CPT: rejected by the final validation pass.
  EXPECT_THROW((void)bn::from_text("sysuq-bayesnet 1\nvariable x a b\n"),
               std::logic_error);
}

TEST(Serialize, WhitespaceNamesRejectedOnWrite) {
  bn::BayesianNetwork net;
  net.add_variable("bad name", {"a", "b"});
  net.set_cpt(0, {}, {pr::Categorical({0.5, 0.5})});
  EXPECT_THROW((void)bn::to_text(net), std::invalid_argument);
}

TEST(Serialize, MobiusInversionRoundTrip) {
  // Reconstructing a mass function from its belief function recovers it.
  using namespace sysuq::evidence;
  const Frame f({"a", "b", "c"});
  const MassFunction m(f, {{f.singleton("a"), 0.4},
                           {f.make_set({"a", "b"}), 0.3},
                           {f.theta(), 0.3}});
  const auto back =
      mass_from_belief(f, [&](FocalSet s) { return m.belief(s); });
  for (const FocalSet s : f.all_nonempty_subsets()) {
    EXPECT_NEAR(back.mass(s), m.mass(s), tol::kTiny);
  }
  // A plausibility function is NOT a belief function in general.
  EXPECT_THROW((void)mass_from_belief(
                   f, [&](FocalSet s) { return m.plausibility(s); }),
               std::invalid_argument);
}
