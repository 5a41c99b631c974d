// Parameterized property sweeps across modules: each suite runs the same
// invariant over many seeded random instances (TEST_P /
// INSTANTIATE_TEST_SUITE_P), catching shape bugs single examples miss.
#include <gtest/gtest.h>

#include <cmath>

#include "bayesnet/engine.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/serialize.hpp"
#include "core/tolerance.hpp"
#include "evidence/credal.hpp"
#include "evidence/mass.hpp"
#include "evidence/subjective.hpp"
#include "fta/analysis.hpp"
#include "fta/dynamic.hpp"
#include "fta/fta_to_bn.hpp"
#include "markov/dtmc.hpp"
#include "prob/rng.hpp"

namespace tol = sysuq::tolerance;

using namespace sysuq;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bayesnet::InferenceEngine::Options kExact{
    .threads = 1, .backend = bayesnet::Backend::kVariableElimination};

}  // namespace

// ---------------------------------------------------------------------
// DS theory: randomized algebraic invariants.
// ---------------------------------------------------------------------

class DsProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  evidence::MassFunction random_mass(prob::Rng& rng, const evidence::Frame& f,
                                     std::size_t focal) {
    std::map<evidence::FocalSet, double> m;
    for (std::size_t i = 0; i < focal; ++i)
      m[1 + rng.uniform_index(f.theta())] += rng.uniform() + 0.02;
    double total = 0.0;
    for (auto& [s, v] : m) total += v;
    for (auto& [s, v] : m) v /= total;
    return {f, std::move(m)};
  }
};

TEST_P(DsProperty, MoebiusInversionIsExactInverse) {
  prob::Rng rng(GetParam());
  const evidence::Frame f({"w", "x", "y", "z"});
  const auto m = random_mass(rng, f, 6);
  const auto back = evidence::mass_from_belief(
      f, [&](evidence::FocalSet s) { return m.belief(s); });
  for (const auto s : f.all_nonempty_subsets())
    ASSERT_NEAR(back.mass(s), m.mass(s), tol::kIteration);
}

TEST_P(DsProperty, DempsterOnBayesianMassesIsBayesRule) {
  // Combining two Bayesian mass functions with Dempster's rule equals
  // pointwise-product renormalization — Bayes' rule.
  prob::Rng rng(GetParam());
  const evidence::Frame f({"a", "b", "c"});
  std::vector<double> w1(3), w2(3);
  for (auto& v : w1) v = rng.uniform() + 0.05;
  for (auto& v : w2) v = rng.uniform() + 0.05;
  const auto p1 = prob::Categorical::normalized(w1);
  const auto p2 = prob::Categorical::normalized(w2);
  const auto fused = evidence::dempster_combine(
      evidence::MassFunction::bayesian(f, p1),
      evidence::MassFunction::bayesian(f, p2));
  std::vector<double> prod(3);
  for (std::size_t i = 0; i < 3; ++i) prod[i] = p1.p(i) * p2.p(i);
  const auto bayes = prob::Categorical::normalized(prod);
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_NEAR(fused.mass(f.singleton(i)), bayes.p(i), tol::kTiny);
}

TEST_P(DsProperty, PignisticWithinBeliefPlausibility) {
  prob::Rng rng(GetParam());
  const evidence::Frame f({"a", "b", "c", "d"});
  const auto m = random_mass(rng, f, 5);
  const auto pig = m.pignistic();
  for (const auto s : f.all_nonempty_subsets()) {
    double mass = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if ((s >> i) & 1u) mass += pig.p(i);
    }
    ASSERT_GE(mass + tol::kTiny, m.belief(s));
    ASSERT_LE(mass - tol::kTiny, m.plausibility(s));
  }
}

TEST_P(DsProperty, DiscountingIsMonotoneInAlpha) {
  prob::Rng rng(GetParam());
  const evidence::Frame f({"a", "b", "c"});
  const auto m = random_mass(rng, f, 4);
  double prev_width = -1.0;
  for (const double alpha : {0.0, 0.2, 0.5, 0.9}) {
    const double width = m.discounted(alpha).belief_interval(f.singleton(0)).width();
    ASSERT_GE(width + tol::kTiny, prev_width);
    prev_width = width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsProperty,
                         ::testing::Values(1, 7, 21, 99, 1234, 5150, 90210));

// ---------------------------------------------------------------------
// FTA <-> BN equivalence on randomized coherent trees.
// ---------------------------------------------------------------------

class FtaBnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtaBnProperty, CompiledNetworkMatchesExactProbability) {
  prob::Rng rng(GetParam());
  fta::FaultTree t;
  std::vector<fta::NodeId> pool;
  const std::size_t nb = 3 + rng.uniform_index(3);
  for (std::size_t i = 0; i < nb; ++i) {
    pool.push_back(
        t.add_basic_event("e" + std::to_string(i), rng.uniform(0.01, 0.4)));
  }
  for (std::size_t g = 0; g < 3; ++g) {
    std::vector<fta::NodeId> ch;
    for (int c = 0; c < 2 + static_cast<int>(rng.uniform_index(2)); ++c)
      ch.push_back(pool[rng.uniform_index(pool.size())]);
    std::sort(ch.begin(), ch.end());
    ch.erase(std::unique(ch.begin(), ch.end()), ch.end());
    if (ch.size() < 2) continue;
    const auto type =
        rng.bernoulli(0.5) ? fta::GateType::kAnd : fta::GateType::kOr;
    pool.push_back(t.add_gate("g" + std::to_string(g), type, std::move(ch)));
  }
  t.set_top(pool.back());
  if (t.is_basic_event(pool.back())) GTEST_SKIP();

  const double exact = fta::exact_top_probability(t);
  const auto compiled = fta::compile_to_bayesnet(t);
  const bayesnet::InferenceEngine ve(compiled.network, kExact);
  ASSERT_NEAR(ve.query(compiled.top).p(1), exact, tol::kIteration);

  // Serialization round trip preserves inference on the compiled net.
  const auto back = bayesnet::from_text(bayesnet::to_text(compiled.network));
  const bayesnet::InferenceEngine ve2(back, kExact);
  ASSERT_NEAR(ve2.query(compiled.top).p(1), exact, tol::kIteration);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtaBnProperty,
                         ::testing::Values(3, 17, 23, 47, 91, 133, 777, 4096));

// ---------------------------------------------------------------------
// Loopy BP: the certified interval always contains the exact posterior.
// ---------------------------------------------------------------------

class LoopyBpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopyBpProperty, CertifiedIntervalContainsExactPosterior) {
  // Random feasible networks (strictly positive CPTs, so P(e) > 0 for
  // every assignment), mixing trees and loopy structures: whatever the
  // graph shape and whether or not BP converged, every certified
  // interval must contain the exact VE posterior and BP's own point.
  prob::Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = 5 + rng.uniform_index(4);  // 5..8 variables
    bayesnet::BayesianNetwork net;
    std::vector<std::size_t> cards;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t card = 2 + rng.uniform_index(3);  // 2..4 states
      cards.push_back(card);
      std::vector<std::string> states;
      for (std::size_t s = 0; s < card; ++s)
        states.push_back("s" + std::to_string(s));
      net.add_variable("v" + std::to_string(i), std::move(states));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<bayesnet::VariableId> parents;
      for (std::size_t j = 0; j < i && parents.size() < 2; ++j)
        if (rng.bernoulli(0.4)) parents.push_back(j);
      std::size_t rows = 1;
      for (const auto p : parents) rows *= cards[p];
      std::vector<prob::Categorical> cpt;
      for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> w(cards[i]);
        for (double& x : w) x = rng.uniform() + 0.05;
        cpt.push_back(prob::Categorical::normalized(std::move(w)));
      }
      net.set_cpt(i, std::move(parents), std::move(cpt));
    }
    bayesnet::Evidence ev;
    const std::size_t observed = rng.uniform_index(3);  // 0..2 observed
    for (std::size_t k = 0; k < observed; ++k) {
      const bayesnet::VariableId v = rng.uniform_index(n);
      ev[v] = rng.uniform_index(cards[v]);
    }

    const bayesnet::InferenceEngine ve(net, kExact);
    const bayesnet::LoopyBP bp(net, ev);
    for (bayesnet::VariableId q = 0; q < n; ++q) {
      if (ev.contains(q)) continue;
      const auto& bounded = bp.query(q);
      const auto exact = ve.query(q, ev);
      EXPECT_TRUE(bounded.contains(exact.probs()))
          << "round " << round << " var " << q
          << " width " << bounded.width();
      EXPECT_TRUE(bounded.contains(bounded.point.probs()))
          << "round " << round << " var " << q;
      for (std::size_t s = 0; s < bounded.lo.size(); ++s) {
        EXPECT_GE(bounded.lo[s], 0.0);
        EXPECT_LE(bounded.hi[s], 1.0);
        EXPECT_LE(bounded.lo[s], bounded.hi[s] + tolerance::kTiny);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopyBpProperty,
                         ::testing::Values(1, 7, 21, 99, 1234, 5150, 90210));

// ---------------------------------------------------------------------
// Credal chain: sharpness — the bounds are attained, not just valid.
// ---------------------------------------------------------------------

class CredalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CredalProperty, MarginalBoundsAreSharp) {
  prob::Rng rng(GetParam());
  // Random point model, widened by random eps.
  std::vector<double> pw(3);
  for (auto& v : pw) v = rng.uniform() + 0.1;
  const auto prior_pt = prob::Categorical::normalized(pw);
  std::vector<prob::Categorical> rows_pt;
  for (int r = 0; r < 3; ++r) {
    std::vector<double> w(4);
    for (auto& v : w) v = rng.uniform() + 0.1;
    rows_pt.push_back(prob::Categorical::normalized(w));
  }
  const double eps = rng.uniform(0.01, 0.08);
  const auto prior = evidence::IntervalDistribution::widened(prior_pt, eps);
  std::vector<evidence::IntervalDistribution> rows;
  for (const auto& r : rows_pt)
    rows.push_back(evidence::IntervalDistribution::widened(r, eps));
  const evidence::IntervalCpt cpt(rows);
  const auto marg = evidence::credal_chain_marginal(prior, cpt);

  // Randomized search should get close to each bound (sharpness within
  // a modest search tolerance).
  for (std::size_t y = 0; y < 4; ++y) {
    double best_lo = 1.0, best_hi = 0.0;
    for (int s = 0; s < 4000; ++s) {
      std::vector<double> p(3);
      for (std::size_t x = 0; x < 3; ++x)
        p[x] = rng.uniform(prior.bound(x).lo(), prior.bound(x).hi()) + tol::kTiny;
      auto pc = prob::Categorical::normalized(p);
      if (!prior.contains(pc)) continue;
      double v = 0.0;
      for (std::size_t x = 0; x < 3; ++x) {
        // Row extreme: push P(y|x) toward its projection bound.
        const auto& row = rows[x];
        double q = (s % 2 == 0) ? row.bound(y).lo() : row.bound(y).hi();
        // Clamp by row-sum feasibility.
        double lo_rest = 0.0, hi_rest = 0.0;
        for (std::size_t yy = 0; yy < 4; ++yy) {
          if (yy == y) continue;
          lo_rest += row.bound(yy).lo();
          hi_rest += row.bound(yy).hi();
        }
        q = std::clamp(q, std::max(row.bound(y).lo(), 1.0 - hi_rest),
                       std::min(row.bound(y).hi(), 1.0 - lo_rest));
        v += pc.p(x) * q;
      }
      best_lo = std::min(best_lo, v);
      best_hi = std::max(best_hi, v);
      // Validity: every point value inside the bounds.
      ASSERT_GE(v, marg.bound(y).lo() - tol::kProbSum);
      ASSERT_LE(v, marg.bound(y).hi() + tol::kProbSum);
    }
    // Sharpness within search slack.
    EXPECT_NEAR(best_lo, marg.bound(y).lo(), 0.02) << "state " << y;
    EXPECT_NEAR(best_hi, marg.bound(y).hi(), 0.02) << "state " << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CredalProperty,
                         ::testing::Values(11, 42, 314, 2718));

// ---------------------------------------------------------------------
// DTMC: simulation frequencies vs analytic bounded reachability.
// ---------------------------------------------------------------------

class DtmcProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DtmcProperty, SimulationMatchesBoundedReachability) {
  prob::Rng rng(GetParam());
  // Random 5-state chain with one absorbing target.
  markov::Dtmc c;
  for (int s = 0; s < 5; ++s) (void)c.add_state("s" + std::to_string(s));
  for (markov::StateId s = 0; s < 4; ++s) {
    std::vector<double> w(5);
    for (auto& v : w) v = rng.uniform() + 0.05;
    double total = 0.0;
    for (double v : w) total += v;
    double acc = 0.0;
    for (markov::StateId t = 0; t < 5; ++t) {
      const double p = (t == 4) ? 1.0 - acc : w[t] / total;
      c.set_transition(s, t, p);
      if (t < 4) acc += p;
    }
  }
  c.set_transition(4, 4, 1.0);
  c.validate();

  const std::size_t k = 6;
  const auto analytic = c.bounded_reachability({4}, k);
  std::size_t hits = 0;
  const std::size_t trials = 40000;
  for (std::size_t i = 0; i < trials; ++i) {
    const auto path = c.simulate(0, k, rng);
    bool reached = false;
    for (const auto s : path) reached = reached || s == 4;
    hits += reached ? 1 : 0;
  }
  ASSERT_NEAR(static_cast<double>(hits) / trials, analytic[0], 0.015);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtmcProperty,
                         ::testing::Values(5, 55, 555, 5555));

// ---------------------------------------------------------------------
// Subjective logic: fusion of split evidence equals pooled evidence.
// ---------------------------------------------------------------------

class OpinionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpinionProperty, CumulativeFusionPoolsEvidence) {
  prob::Rng rng(GetParam());
  const double r1 = rng.uniform(0.0, 50.0), s1 = rng.uniform(0.0, 50.0);
  const double r2 = rng.uniform(0.0, 50.0), s2 = rng.uniform(0.0, 50.0);
  const auto fused = evidence::Opinion::from_evidence(r1, s1).fuse(
      evidence::Opinion::from_evidence(r2, s2));
  const auto pooled = evidence::Opinion::from_evidence(r1 + r2, s1 + s2);
  ASSERT_NEAR(fused.belief(), pooled.belief(), tol::kProbSum);
  ASSERT_NEAR(fused.disbelief(), pooled.disbelief(), tol::kProbSum);
  ASSERT_NEAR(fused.uncertainty(), pooled.uncertainty(), tol::kProbSum);
}

TEST_P(OpinionProperty, ConjunctionDisjunctionDeMorganOnProjections) {
  prob::Rng rng(GetParam());
  const auto random_opinion = [&]() {
    double b = rng.uniform(), d = rng.uniform(), u = rng.uniform();
    const double total = b + d + u;
    return evidence::Opinion(b / total, d / total, u / total, rng.uniform());
  };
  const auto x = random_opinion();
  const auto y = random_opinion();
  // Projected probabilities behave classically.
  ASSERT_NEAR(x.conjoin(y).projected(), x.projected() * y.projected(), tol::kProbSum);
  ASSERT_NEAR(x.disjoin(y).projected(),
              x.projected() + y.projected() - x.projected() * y.projected(),
              tol::kProbSum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpinionProperty,
                         ::testing::Values(2, 22, 222, 2222, 22222));

// ---------------------------------------------------------------------
// Dynamic-vs-static FTA equivalence on randomized static structures.
// ---------------------------------------------------------------------

class DftStaticProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DftStaticProperty, DynamicEngineMatchesStaticOnStaticTrees) {
  prob::Rng rng(GetParam());
  const double t = rng.uniform(0.5, 3.0);

  // Random two-level AND/OR structure over 4 basic events.
  std::vector<double> lambdas(4);
  for (auto& l : lambdas) l = rng.uniform(0.1, 1.5);
  const bool top_is_and = rng.bernoulli(0.5);
  const bool left_is_and = rng.bernoulli(0.5);

  fta::FaultTree st;
  std::vector<fta::NodeId> sev;
  for (std::size_t i = 0; i < 4; ++i) {
    sev.push_back(st.add_basic_event("e" + std::to_string(i),
                                     1.0 - std::exp(-lambdas[i] * t)));
  }
  const auto sl = st.add_gate(
      "left", left_is_and ? fta::GateType::kAnd : fta::GateType::kOr,
      {sev[0], sev[1]});
  const auto sr = st.add_gate("right", fta::GateType::kOr, {sev[2], sev[3]});
  st.set_top(st.add_gate(
      "top", top_is_and ? fta::GateType::kAnd : fta::GateType::kOr, {sl, sr}));

  fta::DynamicFaultTree dy;
  std::vector<fta::DynamicFaultTree::NodeId> dev;
  for (std::size_t i = 0; i < 4; ++i) {
    dev.push_back(dy.add_basic_event("e" + std::to_string(i), lambdas[i]));
  }
  const auto dl = dy.add_gate(
      "left", left_is_and ? fta::DynGateType::kAnd : fta::DynGateType::kOr,
      {dev[0], dev[1]});
  const auto dr = dy.add_gate("right", fta::DynGateType::kOr, {dev[2], dev[3]});
  dy.set_top(dy.add_gate(
      "top", top_is_and ? fta::DynGateType::kAnd : fta::DynGateType::kOr,
      {dl, dr}));

  ASSERT_NEAR(fta::exact_top_probability(st), dy.unreliability(t), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DftStaticProperty,
                         ::testing::Values(8, 88, 888, 8888, 88888));
