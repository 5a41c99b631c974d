// Core-framework tests: the taxonomy registry, uncertainty decomposition,
// all four means engines, and the cybernetic (good-regulator) loop.
#include <gtest/gtest.h>

#include <cmath>

#include "sys/cybernetic.hpp"
#include "sys/decomposition.hpp"
#include "sys/means.hpp"
#include "sys/modeling.hpp"
#include "core/taxonomy.hpp"
#include "bayesnet/engine.hpp"
#include "perception/table1.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace co = sysuq::core;
namespace sy = sysuq::sys;
namespace pc = sysuq::perception;
namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

pc::TrueWorld paper_world(double novel_rate = 0.1) {
  pc::WorldModel modeled({"car", "pedestrian"}, {2.0 / 3.0, 1.0 / 3.0});
  return pc::TrueWorld(std::move(modeled), {"unknown_object"}, novel_rate);
}

}  // namespace

TEST(Taxonomy, EnumNames) {
  EXPECT_STREQ(co::to_string(co::UncertaintyType::kAleatory), "aleatory");
  EXPECT_STREQ(co::to_string(co::UncertaintyType::kOntological), "ontological");
  EXPECT_STREQ(co::to_string(co::Mean::kPrevention), "prevention");
  EXPECT_STREQ(co::to_string(co::Mean::kForecasting), "forecasting");
  EXPECT_STREQ(co::to_string(co::Phase::kOperation), "operation");
  EXPECT_EQ(co::all_uncertainty_types().size(), 3u);
  EXPECT_EQ(co::all_means().size(), 4u);
}

TEST(Taxonomy, PaperCatalogCoversEveryMeanAndType) {
  const auto reg = co::MethodRegistry::paper_catalog();
  EXPECT_GE(reg.size(), 10u);
  for (const auto m : co::all_means()) {
    EXPECT_FALSE(reg.by_mean(m).empty()) << co::to_string(m);
  }
  for (const auto t : co::all_uncertainty_types()) {
    EXPECT_FALSE(reg.by_type(t).empty()) << co::to_string(t);
  }
  EXPECT_TRUE(reg.uncovered_types().empty());
  // The paper's key observation: tolerance hardly addresses ontological
  // uncertainty (Sec. IV), while removal does.
  EXPECT_EQ(reg.coverage(co::Mean::kTolerance, co::UncertaintyType::kOntological),
            0u);
  EXPECT_GT(reg.coverage(co::Mean::kRemoval, co::UncertaintyType::kOntological),
            0u);
}

TEST(Taxonomy, RegistryValidation) {
  co::MethodRegistry reg;
  reg.add({"m1", co::Mean::kRemoval, {co::UncertaintyType::kEpistemic},
           co::Phase::kDesignTime, "x"});
  EXPECT_THROW(reg.add({"m1", co::Mean::kRemoval,
                        {co::UncertaintyType::kEpistemic},
                        co::Phase::kDesignTime, "x"}),
               std::invalid_argument);
  EXPECT_THROW(
      reg.add({"", co::Mean::kRemoval, {co::UncertaintyType::kEpistemic},
               co::Phase::kDesignTime, "x"}),
      std::invalid_argument);
  EXPECT_THROW(reg.add({"m2", co::Mean::kRemoval, {}, co::Phase::kDesignTime,
                        "x"}),
               std::invalid_argument);
  // Aleatory and ontological are uncovered in this tiny registry.
  EXPECT_EQ(reg.uncovered_types().size(), 2u);
}

TEST(Decomposition, BudgetAndDominance) {
  const pr::Categorical agree({0.9, 0.1});
  const auto b = sy::decompose({agree, agree}, 0.02);
  EXPECT_NEAR(b.epistemic, 0.0, tol::kTiny);
  EXPECT_GT(b.aleatory, 0.0);
  EXPECT_DOUBLE_EQ(b.ontological, 0.02);
  EXPECT_EQ(b.dominant(), "aleatory");

  const auto conflict = sy::decompose(
      {pr::Categorical({1.0, 0.0}), pr::Categorical({0.0, 1.0})}, 0.02);
  EXPECT_EQ(conflict.dominant(), "epistemic");

  const auto onto = sy::decompose({agree, agree}, 0.5);
  EXPECT_EQ(onto.dominant(), "ontological");

  EXPECT_THROW((void)sy::decompose({agree}, 1.5), std::invalid_argument);
}

TEST(Decomposition, SurpriseFactorOnPaperNetwork) {
  // Convention: rows = model prediction (perception), cols = system
  // (ground truth). A sharper perception chain has a lower surprise.
  const auto net = pc::table1_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto joint = ve.joint(1, 0);  // X = perception, Y = ground truth
  const double s = sy::surprise_factor(joint);
  const double ns = sy::normalized_surprise(joint);
  EXPECT_GT(s, 0.0);
  EXPECT_GT(ns, 0.0);
  EXPECT_LT(ns, 1.0);

  // Degrade the chain to uninformative: surprise rises to H(ground truth).
  auto blind = pc::table1_network();
  blind.update_cpt_rows(1, {pr::Categorical::uniform(4),
                            pr::Categorical::uniform(4),
                            pr::Categorical::uniform(4)});
  const bn::InferenceEngine ve2(blind, kExact);
  const auto joint2 = ve2.joint(1, 0);
  EXPECT_GT(sy::surprise_factor(joint2), s);
  EXPECT_NEAR(sy::normalized_surprise(joint2), 1.0, tol::kProbSum);
}

TEST(Prevention, OddRestrictionReducesExposure) {
  const auto world = paper_world(0.1);
  const auto r = sy::apply_odd_restriction(world, {0}, 0.2);
  EXPECT_NEAR(r.excluded_encounter_fraction, 1.0 / 3.0, tol::kTiny);
  EXPECT_DOUBLE_EQ(r.novel_rate_before, 0.1);
  EXPECT_NEAR(r.novel_rate_after, 0.02, tol::kTiny);
  EXPECT_NEAR(r.epistemic_parameter_fraction, 0.5, tol::kTiny);
  EXPECT_THROW((void)sy::apply_odd_restriction(world, {0}, 1.5),
               std::invalid_argument);
}

TEST(Removal, LoopShrinksEpistemicAndGap) {
  // Truth = Table I network; deployed starts from uniform rows.
  const auto truth = pc::table1_network();
  auto deployed = pc::table1_network();
  deployed.update_cpt_rows(1, {pr::Categorical::uniform(4),
                               pr::Categorical::uniform(4),
                               pr::Categorical::uniform(4)});
  sy::RemovalLoop loop(truth, deployed, 1, pc::kGtUnknown);
  pr::Rng rng(2027);
  const auto trace = loop.run({100, 1000, 10000, 50000}, rng);
  ASSERT_EQ(trace.size(), 4u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(trace[i].epistemic_width, trace[i - 1].epistemic_width);
    EXPECT_LE(trace[i].model_gap, trace[i - 1].model_gap + 0.02);
  }
  EXPECT_LT(trace.back().model_gap, 0.03);
  // Ontological events accumulate at the 10% unknown rate.
  EXPECT_NEAR(static_cast<double>(trace.back().ontological_events) / 50000.0,
              0.1, 0.01);
  // The deployed model now approximates Table I.
  EXPECT_NEAR(deployed.cpt_rows(1)[0].p(0), 0.9, 0.05);
}

TEST(Removal, Validation) {
  const auto truth = pc::table1_network();
  auto deployed = pc::table1_network();
  sy::RemovalLoop loop(truth, deployed, 1, pc::kGtUnknown);
  pr::Rng rng(1);
  EXPECT_THROW((void)loop.run({}, rng), std::invalid_argument);
  EXPECT_THROW((void)loop.run({10, 10}, rng), std::invalid_argument);
}

TEST(Tolerance, RedundancyReportShowsGain) {
  const auto world = paper_world(0.05);
  const auto sensor = pc::ConfusionSensor::make_default(2, 1, 0.9, 0.8);
  pc::RedundantArchitecture single{{sensor}, pc::FusionRule::kMajorityVote,
                                   0.0, 0.1};
  pc::RedundantArchitecture triple{{sensor, sensor, sensor},
                                   pc::FusionRule::kMajorityVote, 0.0, 0.1};
  pr::Rng rng(2028);
  const auto report = sy::compare_tolerance(single, triple, world, 40000, rng);
  EXPECT_GT(report.hazard_reduction_factor, 1.0);
  EXPECT_GT(report.redundant.accuracy, report.single.accuracy);
}

TEST(Forecasting, ReleaseDecisionLogic) {
  sy::ReleaseCriteria criteria;  // defaults
  // Insufficient evidence: everything blocks.
  sy::ReleaseEvidence weak;
  const auto d1 = sy::assess_release(weak, criteria);
  EXPECT_FALSE(d1.ready);
  EXPECT_GE(d1.blockers.size(), 3u);

  // Strong evidence: release.
  sy::ReleaseEvidence strong;
  strong.field_observations = 100000;
  strong.epistemic_width = 0.01;
  strong.missing_mass = 0.001;
  strong.hazardous_events = 10;  // rate 1e-4, Wilson upper ~1.9e-4
  const auto d2 = sy::assess_release(strong, criteria);
  EXPECT_TRUE(d2.ready) << (d2.blockers.empty() ? "" : d2.blockers[0]);
  EXPECT_LT(d2.hazard_rate_upper, criteria.max_hazard_rate_upper);

  // One criterion failing blocks with a specific reason.
  auto partial = strong;
  partial.missing_mass = 0.2;
  const auto d3 = sy::assess_release(partial, criteria);
  EXPECT_FALSE(d3.ready);
  ASSERT_EQ(d3.blockers.size(), 1u);
  EXPECT_NE(d3.blockers[0].find("ontological"), std::string::npos);
}

TEST(Cybernetic, GoodRegulatorRegretShrinksWithModelFidelity) {
  // Fig. 1 / Conant-Ashby: as the organization's model of the controlled
  // system improves (more field observations), its regulation approaches
  // the oracle policy.
  const auto world = paper_world(0.05);
  const auto sensor = pc::ConfusionSensor::make_default(2, 1, 0.85, 0.8);
  sy::DecisionCosts costs{1.0, 0.1, 0.0};
  sy::CyberneticLoop loop(world, sensor, costs);
  pr::Rng rng(2029);
  const auto trace = loop.run({20, 500, 20000}, rng);
  ASSERT_EQ(trace.size(), 3u);
  // Model gap decreases...
  EXPECT_GT(trace.front().model_gap, trace.back().model_gap);
  // ...and the final policy is near-oracle.
  EXPECT_LT(trace.back().regret, 0.02);
  EXPECT_GE(trace.back().oracle_cost, 0.0);
}

TEST(Cybernetic, Validation) {
  const auto world = paper_world(0.05);
  const auto sensor = pc::ConfusionSensor::make_default(2, 1, 0.85, 0.8);
  EXPECT_THROW(sy::CyberneticLoop(world, sensor, {0.0, 0.1, 0.0}),
               std::invalid_argument);
  sy::CyberneticLoop loop(world, sensor, {1.0, 0.1, 0.0});
  pr::Rng rng(4);
  EXPECT_THROW((void)loop.run({}, rng), std::invalid_argument);
  EXPECT_THROW((void)loop.run({5, 5}, rng), std::invalid_argument);
  // Sensor lacking novel-class rows is rejected.
  const auto short_sensor = pc::ConfusionSensor::make_default(2, 0, 0.85, 0.8);
  EXPECT_THROW(sy::CyberneticLoop(world, short_sensor, {1.0, 0.1, 0.0}),
               std::invalid_argument);
}

TEST(ModelFidelity, TracksAgreementAndSurprise) {
  // Perfect model: prediction == outcome always.
  sy::ModelFidelityTracker perfect(3, 3);
  for (int i = 0; i < 300; ++i) perfect.observe(i % 3, i % 3);
  EXPECT_DOUBLE_EQ(perfect.agreement(), 1.0);
  EXPECT_NEAR(perfect.surprise(), 0.0, tol::kTiny);
  EXPECT_EQ(perfect.verdict(), "adequate");

  // Useless model: outcome independent of prediction.
  sy::ModelFidelityTracker blind(2, 2);
  for (int i = 0; i < 400; ++i) blind.observe(i % 2, (i / 2) % 2);
  EXPECT_NEAR(blind.normalized(), 1.0, tol::kProbSum);
  EXPECT_EQ(blind.verdict(), "ontological gap (extend the model)");

  // Mostly-right model lands in the epistemic band.
  sy::ModelFidelityTracker decent(2, 2);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t pred = i % 2;
    decent.observe(pred, i % 10 == 0 ? 1 - pred : pred);
  }
  EXPECT_GT(decent.agreement(), 0.85);
  EXPECT_EQ(decent.verdict(), "epistemic gap (refine the model)");
}

TEST(ModelFidelity, Validation) {
  EXPECT_THROW(sy::ModelFidelityTracker(1, 2), std::invalid_argument);
  sy::ModelFidelityTracker t(2, 3);
  EXPECT_THROW(t.observe(2, 0), std::out_of_range);
  EXPECT_THROW((void)t.joint(), std::logic_error);
  t.observe(0, 0);
  EXPECT_THROW((void)t.agreement(), std::logic_error);  // 2 != 3 states
  EXPECT_THROW((void)t.verdict(0.5, 0.4), std::invalid_argument);
}

TEST(ModelFidelity, MatchesVariableEliminationJoint) {
  // Sampling the Table I network and tracking (perception, ground truth)
  // pairs converges to the exact joint's surprise factor.
  const auto net = pc::table1_network();
  const bn::InferenceEngine ve(net, kExact);
  const double exact = sy::surprise_factor(ve.joint(1, 0));
  sy::ModelFidelityTracker tracker(4, 3);
  pr::Rng rng(13579);
  for (int i = 0; i < 200000; ++i) {
    const auto s = net.sample(rng);
    tracker.observe(s[1], s[0]);
  }
  EXPECT_NEAR(tracker.surprise(), exact, 0.01);
}
