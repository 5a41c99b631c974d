// Fault-tree tests: construction, cut sets, exact probability against
// brute-force enumeration over the structure function, approximations,
// importance measures, interval/fuzzy evaluation, and the FTA->BN compiler.
#include "fta/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bayesnet/engine.hpp"
#include "fta/fta_to_bn.hpp"
#include "prob/distribution.hpp"
#include "prob/rng.hpp"
#include "prob/statistics.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace ft = sysuq::fta;
namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

// Brute-force P(top) by enumerating all basic-event states.
double brute_force_top(const ft::FaultTree& t) {
  const auto events = t.basic_events();
  const std::size_t n = events.size();
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<bool> state(n);
    double p = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      state[i] = (mask >> i) & 1u;
      p *= state[i] ? t.probability(events[i]) : 1.0 - t.probability(events[i]);
    }
    if (t.evaluate_structure(state)) total += p;
  }
  return total;
}

// A two-channel perception system: top fails if (cam1 AND cam2) fail or
// the shared fusion ECU fails. Shared event: power supply feeds both cams.
ft::FaultTree redundant_perception_tree() {
  ft::FaultTree t;
  const auto power = t.add_basic_event("power", 0.01);
  const auto cam1 = t.add_basic_event("cam1", 0.05);
  const auto cam2 = t.add_basic_event("cam2", 0.05);
  const auto ecu = t.add_basic_event("ecu", 0.002);
  const auto ch1 = t.add_gate("channel1", ft::GateType::kOr, {power, cam1});
  const auto ch2 = t.add_gate("channel2", ft::GateType::kOr, {power, cam2});
  const auto both = t.add_gate("both_channels", ft::GateType::kAnd, {ch1, ch2});
  const auto top = t.add_gate("no_perception", ft::GateType::kOr, {both, ecu});
  t.set_top(top);
  return t;
}

}  // namespace

TEST(FaultTree, ConstructionValidation) {
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.1);
  EXPECT_THROW((void)t.add_basic_event("a", 0.2), std::invalid_argument);
  EXPECT_THROW((void)t.add_basic_event("b", 1.2), std::invalid_argument);
  EXPECT_THROW((void)t.add_gate("g", ft::GateType::kAnd, {}),
               std::invalid_argument);
  EXPECT_THROW((void)t.add_gate("g", ft::GateType::kNot, {a, a}),
               std::invalid_argument);
  EXPECT_THROW((void)t.add_gate("g", ft::GateType::kKooN, {a}, 2),
               std::invalid_argument);
  EXPECT_THROW((void)t.top(), std::logic_error);
  t.set_top(a);
  EXPECT_EQ(t.top(), a);
  EXPECT_THROW((void)t.probability(99), std::out_of_range);
}

TEST(FaultTree, StructureEvaluation) {
  auto t = redundant_perception_tree();
  // Order of basic events: power, cam1, cam2, ecu.
  EXPECT_FALSE(t.evaluate_structure({false, false, false, false}));
  EXPECT_TRUE(t.evaluate_structure({true, false, false, false}));   // power
  EXPECT_FALSE(t.evaluate_structure({false, true, false, false}));  // one cam
  EXPECT_TRUE(t.evaluate_structure({false, true, true, false}));    // both cams
  EXPECT_TRUE(t.evaluate_structure({false, false, false, true}));   // ecu
}

TEST(FaultTree, MinimalCutSets) {
  auto t = redundant_perception_tree();
  const auto cuts = ft::minimal_cut_sets(t);
  // Expected: {power}, {ecu}, {cam1, cam2}.
  ASSERT_EQ(cuts.size(), 3u);
  const auto has = [&](std::vector<std::string> names) {
    ft::CutSet want;
    for (const auto& n : names) want.insert(t.id_of(n));
    return std::find(cuts.begin(), cuts.end(), want) != cuts.end();
  };
  EXPECT_TRUE(has({"power"}));
  EXPECT_TRUE(has({"ecu"}));
  EXPECT_TRUE(has({"cam1", "cam2"}));
}

TEST(FaultTree, KooNCutSets) {
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.1);
  const auto b = t.add_basic_event("b", 0.1);
  const auto c = t.add_basic_event("c", 0.1);
  const auto g = t.add_gate("2oo3", ft::GateType::kKooN, {a, b, c}, 2);
  t.set_top(g);
  const auto cuts = ft::minimal_cut_sets(t);
  EXPECT_EQ(cuts.size(), 3u);  // {a,b}, {a,c}, {b,c}
  for (const auto& cut : cuts) EXPECT_EQ(cut.size(), 2u);
}

TEST(FaultTree, ExactMatchesBruteForce) {
  auto t = redundant_perception_tree();
  EXPECT_NEAR(ft::exact_top_probability(t), brute_force_top(t), tol::kTiny);
}

TEST(FaultTree, ExactMatchesBruteForceRandomized) {
  // Random coherent trees with shared events.
  pr::Rng rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    ft::FaultTree t;
    std::vector<ft::NodeId> pool;
    const std::size_t nb = 3 + rng.uniform_index(4);
    for (std::size_t i = 0; i < nb; ++i) {
      pool.push_back(t.add_basic_event("e" + std::to_string(i),
                                       rng.uniform(0.01, 0.5)));
    }
    const std::size_t ng = 2 + rng.uniform_index(3);
    for (std::size_t g = 0; g < ng; ++g) {
      // Pick 2-3 random existing nodes (allows sharing).
      std::vector<ft::NodeId> ch;
      const std::size_t nc = 2 + rng.uniform_index(2);
      for (std::size_t c = 0; c < nc; ++c)
        ch.push_back(pool[rng.uniform_index(pool.size())]);
      // Dedup children (a gate with duplicate children is legal but odd).
      std::sort(ch.begin(), ch.end());
      ch.erase(std::unique(ch.begin(), ch.end()), ch.end());
      if (ch.size() < 2) continue;
      const auto type = rng.bernoulli(0.5) ? ft::GateType::kAnd
                                           : ft::GateType::kOr;
      pool.push_back(
          t.add_gate("g" + std::to_string(g), type, std::move(ch)));
    }
    t.set_top(pool.back());
    if (t.is_basic_event(pool.back())) continue;
    EXPECT_NEAR(ft::exact_top_probability(t), brute_force_top(t), tol::kIteration)
        << "trial " << trial;
  }
}

TEST(FaultTree, KooNExactAgainstBinomial) {
  // 2oo3 with identical p: P = 3p^2(1-p) + p^3.
  ft::FaultTree t;
  const double p = 0.1;
  const auto a = t.add_basic_event("a", p);
  const auto b = t.add_basic_event("b", p);
  const auto c = t.add_basic_event("c", p);
  t.set_top(t.add_gate("2oo3", ft::GateType::kKooN, {a, b, c}, 2));
  EXPECT_NEAR(ft::exact_top_probability(t), 3 * p * p * (1 - p) + p * p * p,
              tol::kRoot);
}

TEST(FaultTree, NotGateSupportedInExactOnly) {
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.3);
  const auto n = t.add_gate("not_a", ft::GateType::kNot, {a});
  t.set_top(n);
  EXPECT_FALSE(t.is_coherent());
  EXPECT_NEAR(ft::exact_top_probability(t), 0.7, tol::kRoot);
  EXPECT_THROW((void)ft::minimal_cut_sets(t), std::logic_error);
  EXPECT_THROW((void)ft::interval_top_probability(
                   t, {pr::ProbInterval(0.2, 0.4)}),
               std::logic_error);
}

TEST(FaultTree, ApproximationsBoundExact) {
  auto t = redundant_perception_tree();
  const double exact = ft::exact_top_probability(t);
  const double rare = ft::rare_event_approximation(t);
  const double mcub = ft::min_cut_upper_bound(t);
  EXPECT_GE(rare, exact - tol::kTiny);
  EXPECT_GE(mcub, exact - tol::kTiny);
  EXPECT_LE(mcub, rare + tol::kTiny);  // MCUB is the tighter of the two
  // For small probabilities all three are close.
  EXPECT_NEAR(rare, exact, 5e-4);
}

TEST(FaultTree, ImportanceMeasures) {
  auto t = redundant_perception_tree();
  const auto power = ft::importance(t, t.id_of("power"));
  const auto cam1 = ft::importance(t, t.id_of("cam1"));
  const auto ecu = ft::importance(t, t.id_of("ecu"));
  // The single-point-of-failure events dominate the redundant cameras.
  EXPECT_GT(power.birnbaum, cam1.birnbaum);
  EXPECT_GT(ecu.birnbaum, cam1.birnbaum);
  EXPECT_GT(power.fussell_vesely, cam1.fussell_vesely);
  // RAW of a camera is modest; RAW of power is large.
  EXPECT_GT(power.raw, cam1.raw);
  EXPECT_GE(power.rrw, 1.0);
  // Birnbaum is a probability difference in [0, 1].
  for (const auto& m : {power, cam1, ecu}) {
    EXPECT_GE(m.birnbaum, 0.0);
    EXPECT_LE(m.birnbaum, 1.0);
    EXPECT_GE(m.fussell_vesely, 0.0);
    EXPECT_LE(m.fussell_vesely, 1.0 + tol::kTiny);
  }
  EXPECT_THROW((void)ft::importance(t, t.id_of("no_perception")),
               std::invalid_argument);
}

TEST(FaultTree, IntervalEvaluationBracketsPointValues) {
  auto t = redundant_perception_tree();
  const auto events = t.basic_events();
  std::vector<pr::ProbInterval> bounds;
  for (ft::NodeId e : events) {
    const double p = t.probability(e);
    bounds.emplace_back(std::max(0.0, p - 0.01), std::min(1.0, p + 0.01));
  }
  const auto iv = ft::interval_top_probability(t, bounds);
  const double exact = ft::exact_top_probability(t);
  EXPECT_LE(iv.lo(), exact);
  EXPECT_GE(iv.hi(), exact);
  EXPECT_GT(iv.width(), 0.0);
  // Monte-Carlo containment over the probability box.
  pr::Rng rng(11);
  for (int s = 0; s < 200; ++s) {
    auto w = t;
    for (std::size_t i = 0; i < events.size(); ++i) {
      w.set_probability(events[i],
                        rng.uniform(bounds[i].lo(), bounds[i].hi()));
    }
    const double pv = ft::exact_top_probability(w);
    EXPECT_GE(pv, iv.lo() - tol::kTiny);
    EXPECT_LE(pv, iv.hi() + tol::kTiny);
  }
}

TEST(FaultTree, FuzzyEvaluationNestsWithAlpha) {
  auto t = redundant_perception_tree();
  std::vector<pr::TriangularFuzzy> fz;
  for (ft::NodeId e : t.basic_events()) {
    const double p = t.probability(e);
    fz.emplace_back(p * 0.5, p, std::min(1.0, p * 2.0));
  }
  const auto cuts = ft::fuzzy_top_probability(t, fz, 8);
  ASSERT_EQ(cuts.size(), 8u);
  // Alpha-cuts are nested: higher alpha, narrower interval; alpha=1 is
  // the crisp point value.
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_GE(cuts[i - 1].second.width(), cuts[i].second.width());
    EXPECT_LE(cuts[i - 1].second.lo(), cuts[i].second.lo() + tol::kTiny);
    EXPECT_GE(cuts[i - 1].second.hi(), cuts[i].second.hi() - tol::kTiny);
  }
  EXPECT_NEAR(cuts.back().second.mid(), ft::exact_top_probability(t), tol::kProbSum);
  EXPECT_LT(cuts.back().second.width(), tol::kProbSum);
}

TEST(FtaToBn, CompiledNetworkReproducesExactProbability) {
  auto t = redundant_perception_tree();
  const auto compiled = ft::compile_to_bayesnet(t);
  const bn::InferenceEngine ve(compiled.network, kExact);
  const auto marginal = ve.query(compiled.top);
  EXPECT_NEAR(marginal.p(1), ft::exact_top_probability(t), tol::kTiny);
}

TEST(FtaToBn, DiagnosisBeyondFta) {
  // What FTA cannot do: given that the system failed, infer which root
  // cause is most likely (posterior over basic events).
  auto t = redundant_perception_tree();
  const auto compiled = ft::compile_to_bayesnet(t);
  const bn::InferenceEngine ve(compiled.network, kExact);
  const bn::Evidence failed{{compiled.top, 1}};
  const auto p_power = ve.query(compiled.network.id_of("power"), failed);
  const auto p_cam1 = ve.query(compiled.network.id_of("cam1"), failed);
  // Posterior failure probabilities exceed priors (explaining the failure).
  EXPECT_GT(p_power.p(1), 0.01);
  EXPECT_GT(p_cam1.p(1), 0.05);
  // Power (a single-point cut) is boosted far more than one camera.
  EXPECT_GT(p_power.p(1) / 0.01, p_cam1.p(1) / 0.05);
}

TEST(FtaToBn, KooNAndNotGatesCompile) {
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.2);
  const auto b = t.add_basic_event("b", 0.3);
  const auto c = t.add_basic_event("c", 0.4);
  const auto koon = t.add_gate("2oo3", ft::GateType::kKooN, {a, b, c}, 2);
  const auto safe = t.add_gate("safe", ft::GateType::kNot, {koon});
  t.set_top(safe);
  const auto compiled = ft::compile_to_bayesnet(t);
  const bn::InferenceEngine ve(compiled.network, kExact);
  EXPECT_NEAR(ve.query(compiled.top).p(1), ft::exact_top_probability(t), tol::kTiny);
}

TEST(FtaToBn, GatesOf64OrMoreChildrenThrow) {
  // A gate's CPT has 2^children rows, which overflows size_t from 64
  // children on: the compiler rejects the gate before building any row.
  for (const std::size_t width : {64u, 65u}) {
    ft::FaultTree t;
    std::vector<ft::NodeId> events;
    for (std::size_t i = 0; i < width; ++i)
      events.push_back(t.add_basic_event("e" + std::to_string(i), 0.01));
    t.set_top(t.add_gate("top", ft::GateType::kOr, events));
    EXPECT_THROW((void)ft::compile_to_bayesnet(t), std::invalid_argument) << width;
  }
}

TEST(FaultTree, PraEpistemicPropagation) {
  // LogNormal error factors on the basic events induce a distribution
  // over the top-event probability; the median sample sits near the
  // point estimate with the median rates, and the 95th percentile
  // exceeds it (right-skewed, as PRA expects).
  auto t = redundant_perception_tree();
  const auto events = t.basic_events();
  std::vector<pr::LogNormal> rate_uncertainty;
  for (ft::NodeId e : events) {
    // Median at the point estimate, error factor 3.
    rate_uncertainty.emplace_back(std::log(t.probability(e)),
                                  std::log(3.0) / 1.6448536269514722);
  }
  pr::Rng rng(777777);
  const auto samples = ft::sample_top_probabilities(
      t,
      [&](std::size_t i, pr::Rng& r) { return rate_uncertainty[i].sample(r); },
      4000, rng);
  ASSERT_EQ(samples.size(), 4000u);
  const double point = ft::exact_top_probability(t);
  const double median = pr::quantile(samples, 0.5);
  const double p95 = pr::quantile(samples, 0.95);
  EXPECT_NEAR(median, point, 0.4 * point);
  EXPECT_GT(p95, 1.5 * point);
  // All samples are valid probabilities.
  for (double v : samples) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_THROW(
      (void)ft::sample_top_probabilities(
          t, [](std::size_t, pr::Rng&) { return 0.5; }, 0, rng),
      std::invalid_argument);
}
