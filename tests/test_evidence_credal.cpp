// Credal propagation tests: sharp interval bounds cross-checked against
// Monte-Carlo sampling of the credal sets, plus the evidential-network
// (powerset-state) mapping on the paper's Table I example.
#include "evidence/credal.hpp"

#include <gtest/gtest.h>

#include "bayesnet/engine.hpp"
#include "evidence/evidential_network.hpp"
#include "perception/table1.hpp"
#include "prob/rng.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace ev = sysuq::evidence;
namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

// Draws a random categorical inside a credal set (rejection from the
// center-perturbed simplex; falls back to center when tight).
pr::Categorical sample_inside(const ev::IntervalDistribution& d, pr::Rng& rng) {
  for (int tries = 0; tries < 200; ++tries) {
    std::vector<double> w(d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
      w[i] = rng.uniform(d.bound(i).lo(), d.bound(i).hi()) + tol::kTiny;
    auto c = pr::Categorical::normalized(std::move(w));
    if (d.contains(c)) return c;
  }
  return d.center();
}

}  // namespace

TEST(IntervalDistribution, ConstructionValidation) {
  using PI = pr::ProbInterval;
  EXPECT_NO_THROW(ev::IntervalDistribution({PI(0.2, 0.5), PI(0.3, 0.9)}));
  // Empty credal set: lower bounds exceed 1.
  EXPECT_THROW(ev::IntervalDistribution({PI(0.6, 0.8), PI(0.6, 0.8)}),
               std::invalid_argument);
  // Empty credal set: upper bounds below 1.
  EXPECT_THROW(ev::IntervalDistribution({PI(0.1, 0.3), PI(0.1, 0.3)}),
               std::invalid_argument);
  EXPECT_THROW(ev::IntervalDistribution({PI(0.5, 0.5)}), std::invalid_argument);
}

TEST(IntervalDistribution, PreciseAndVacuous) {
  const auto p = ev::IntervalDistribution::precise(pr::Categorical({0.3, 0.7}));
  EXPECT_DOUBLE_EQ(p.max_width(), 0.0);
  EXPECT_TRUE(p.contains(pr::Categorical({0.3, 0.7})));
  EXPECT_FALSE(p.contains(pr::Categorical({0.4, 0.6})));
  const auto v = ev::IntervalDistribution::vacuous(3);
  EXPECT_DOUBLE_EQ(v.max_width(), 1.0);
  EXPECT_TRUE(v.contains(pr::Categorical({1.0, 0.0, 0.0})));
}

TEST(IntervalDistribution, WidenedContainsPoint) {
  const pr::Categorical p({0.6, 0.3, 0.1});
  const auto w = ev::IntervalDistribution::widened(p, 0.05);
  EXPECT_TRUE(w.contains(p));
  EXPECT_NEAR(w.mean_width(), 0.1, 0.02);  // 0.1 state clamps at 0.05 low
  EXPECT_THROW((void)ev::IntervalDistribution::widened(p, -0.1),
               std::invalid_argument);
}

TEST(IntervalDistribution, ExpectationBoundsAreSharpAndOrdered) {
  using PI = pr::ProbInterval;
  const ev::IntervalDistribution d({PI(0.1, 0.5), PI(0.2, 0.6), PI(0.1, 0.4)});
  const std::vector<double> c{1.0, 2.0, 3.0};
  const double lo = d.lower_expectation(c);
  const double hi = d.upper_expectation(c);
  EXPECT_LT(lo, hi);
  // Manual optimum: maximize puts as much mass as possible on state 2
  // (hi 0.4), then state 1: p = (0.1, 0.5, 0.4) -> 1*0.1+2*0.5+3*0.4 = 2.3.
  EXPECT_NEAR(hi, 2.3, tol::kTiny);
  // Minimize: p = (0.5, 0.4, 0.1) -> 0.5+0.8+0.3 = 1.6.
  EXPECT_NEAR(lo, 1.6, tol::kTiny);
  // Monte-Carlo containment.
  pr::Rng rng(42);
  for (int t = 0; t < 500; ++t) {
    const auto p = sample_inside(d, rng);
    double e = 0.0;
    for (std::size_t i = 0; i < 3; ++i) e += p.p(i) * c[i];
    EXPECT_GE(e, lo - tol::kProbSum);
    EXPECT_LE(e, hi + tol::kProbSum);
  }
}

TEST(CredalChain, PreciseInputsReproduceExactInference) {
  // With degenerate intervals the credal machinery must agree with exact
  // BN inference on the paper network.
  const auto net = sysuq::perception::table1_network();
  const auto prior = ev::IntervalDistribution::precise(net.cpt_rows(0)[0]);
  const auto cpt = ev::IntervalCpt::precise(net.cpt_rows(1));

  const auto marg = ev::credal_chain_marginal(prior, cpt);
  const bn::InferenceEngine ve(net, kExact);
  const auto exact = ve.query(1);
  for (std::size_t y = 0; y < 4; ++y) {
    EXPECT_NEAR(marg.bound(y).lo(), exact.p(y), tol::kIteration) << y;
    EXPECT_NEAR(marg.bound(y).hi(), exact.p(y), tol::kIteration) << y;
  }

  const auto post = ev::credal_chain_posterior(prior, cpt, 3);
  const auto exact_post = ve.query(0, {{1, 3}});
  for (std::size_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(post.bound(x).lo(), exact_post.p(x), tol::kProbSum) << x;
    EXPECT_NEAR(post.bound(x).hi(), exact_post.p(x), tol::kProbSum) << x;
  }
}

TEST(CredalChain, BoundsContainAllSampledModels) {
  // Property: for interval-widened Table I, every sampled (prior, CPT)
  // inside the credal sets yields marginals and posteriors within the
  // computed bounds.
  const auto net = sysuq::perception::table1_network();
  const double eps = 0.04;
  const auto prior = ev::IntervalDistribution::widened(net.cpt_rows(0)[0], eps);
  std::vector<ev::IntervalDistribution> rows;
  for (const auto& r : net.cpt_rows(1))
    rows.push_back(ev::IntervalDistribution::widened(r, eps));
  const ev::IntervalCpt cpt(rows);

  const auto marg = ev::credal_chain_marginal(prior, cpt);
  const auto post = ev::credal_chain_posterior(prior, cpt, 3);

  pr::Rng rng(99);
  for (int t = 0; t < 300; ++t) {
    const auto p = sample_inside(prior, rng);
    std::vector<pr::Categorical> qrows;
    for (std::size_t x = 0; x < 3; ++x) qrows.push_back(sample_inside(rows[x], rng));

    // Point marginal.
    for (std::size_t y = 0; y < 4; ++y) {
      double py = 0.0;
      for (std::size_t x = 0; x < 3; ++x) py += p.p(x) * qrows[x].p(y);
      EXPECT_GE(py, marg.bound(y).lo() - tol::kProbSum);
      EXPECT_LE(py, marg.bound(y).hi() + tol::kProbSum);
    }
    // Point posterior given perception = none.
    double den = 0.0;
    for (std::size_t x = 0; x < 3; ++x) den += p.p(x) * qrows[x].p(3);
    if (den > tol::kTiny) {
      for (std::size_t x = 0; x < 3; ++x) {
        const double px = p.p(x) * qrows[x].p(3) / den;
        EXPECT_GE(px, post.bound(x).lo() - 1e-7);
        EXPECT_LE(px, post.bound(x).hi() + 1e-7);
      }
    }
  }
}

TEST(CredalChain, WiderInputsWidenOutputs) {
  const auto net = sysuq::perception::table1_network();
  const auto prior_pt = net.cpt_rows(0)[0];
  const auto& cpt_rows = net.cpt_rows(1);
  double prev_width = -1.0;
  for (double eps : {0.0, 0.02, 0.05, 0.10}) {
    const auto prior = ev::IntervalDistribution::widened(prior_pt, eps);
    std::vector<ev::IntervalDistribution> rows;
    for (const auto& r : cpt_rows)
      rows.push_back(ev::IntervalDistribution::widened(r, eps));
    const auto marg = ev::credal_chain_marginal(prior, ev::IntervalCpt(rows));
    EXPECT_GT(marg.mean_width(), prev_width);
    prev_width = marg.mean_width();
  }
}

TEST(CredalChain, ImpossibleEvidenceThrows) {
  using PI = pr::ProbInterval;
  const ev::IntervalDistribution prior({PI(0.5), PI(0.5)});
  // Child state 1 has probability exactly zero under both rows.
  const ev::IntervalCpt cpt({ev::IntervalDistribution({PI(1.0), PI(0.0)}),
                             ev::IntervalDistribution({PI(1.0), PI(0.0)})});
  EXPECT_THROW((void)ev::credal_chain_posterior(prior, cpt, 1),
               std::domain_error);
  EXPECT_THROW((void)ev::credal_chain_posterior(prior, cpt, 7),
               std::out_of_range);
}

TEST(EvidentialNetwork, PowersetVariableLayout) {
  ev::Frame f({"car", "pedestrian", "unknown"});
  const auto var = ev::powerset_variable("gt_ds", f);
  EXPECT_EQ(var.cardinality(), 7u);
  EXPECT_EQ(var.state_name(0), "{car}");
  EXPECT_EQ(var.state_name(2), "{car, pedestrian}");
  EXPECT_EQ(var.state_name(6), "{car, pedestrian, unknown}");
  EXPECT_EQ(ev::powerset_state_index(f, 0b011), 2u);
  EXPECT_THROW((void)ev::powerset_state_index(f, 0), std::invalid_argument);
}

TEST(EvidentialNetwork, MassCategoricalRoundTrip) {
  ev::Frame f({"a", "b", "c"});
  const ev::MassFunction m(
      f, {{f.singleton("a"), 0.5}, {f.make_set({"a", "b"}), 0.3},
          {f.theta(), 0.2}});
  const auto c = ev::mass_to_categorical(m);
  const auto back = ev::categorical_to_mass(f, c);
  for (const ev::FocalSet s : f.all_nonempty_subsets())
    EXPECT_NEAR(back.mass(s), m.mass(s), tol::kTiny);
}

TEST(EvidentialNetwork, TableOneWithIgnoranceStates) {
  // Simon et al. construction on the paper's example: the ground-truth
  // frame {car, pedestrian, unknown} becomes a 7-state powerset node. A
  // DS prior putting 5% ignorance mass on Theta propagates to wider
  // belief/plausibility intervals downstream.
  ev::Frame f({"car", "pedestrian", "unknown"});
  bn::BayesianNetwork net;
  const auto gt = net.add_variable(ev::powerset_variable("gt_ds", f));

  // DS prior: 95% of the Sec. V priors, 5% total ignorance.
  const ev::MassFunction prior_mass(f, {{f.singleton("car"), 0.57},
                                        {f.singleton("pedestrian"), 0.285},
                                        {f.singleton("unknown"), 0.095},
                                        {f.theta(), 0.05}});
  net.set_cpt(gt, {}, {ev::mass_to_categorical(prior_mass)});

  const bn::InferenceEngine ve(net, kExact);
  const auto marg = ve.query(gt);
  const auto iv = ev::belief_plausibility(f, marg, f.singleton("car"));
  EXPECT_NEAR(iv.lo(), 0.57, tol::kTiny);         // Bel
  EXPECT_NEAR(iv.hi(), 0.57 + 0.05, tol::kTiny);  // Pl includes the ignorance
  const auto iv_cp =
      ev::belief_plausibility(f, marg, f.make_set({"car", "pedestrian"}));
  EXPECT_NEAR(iv_cp.lo(), 0.855, tol::kTiny);
  EXPECT_NEAR(iv_cp.hi(), 0.905, tol::kTiny);
}
