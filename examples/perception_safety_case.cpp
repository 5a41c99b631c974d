// Safety analysis of a redundant perception architecture, three ways:
//
//   1. Classic FTA: cut sets, exact top probability, importance.
//   2. The same model compiled to a BN: diagnosis FTA cannot do.
//   3. The evidential view: interval CPTs produce belief/plausibility
//      envelopes instead of false point precision (Sec. V.B).
//
// Ends with a means recommendation drawn from the taxonomy registry.
#include <cstdio>

#include "bayesnet/engine.hpp"
#include "bayesnet/inference.hpp"
#include "core/taxonomy.hpp"
#include "evidence/credal.hpp"
#include "fta/analysis.hpp"
#include "fta/event_tree.hpp"
#include "fta/fta_to_bn.hpp"
#include "prob/distribution.hpp"
#include "prob/statistics.hpp"
#include "perception/table1.hpp"

int main() {
  using namespace sysuq;

  // ---- 1. FTA of a two-channel perception system ----
  std::puts("== fault tree analysis ==");
  fta::FaultTree tree;
  const auto power = tree.add_basic_event("power", 0.01);
  const auto cam1 = tree.add_basic_event("cam1", 0.05);
  const auto cam2 = tree.add_basic_event("cam2", 0.05);
  const auto ecu = tree.add_basic_event("ecu", 0.002);
  const auto ch1 = tree.add_gate("channel1", fta::GateType::kOr, {power, cam1});
  const auto ch2 = tree.add_gate("channel2", fta::GateType::kOr, {power, cam2});
  const auto both = tree.add_gate("both_channels", fta::GateType::kAnd, {ch1, ch2});
  tree.set_top(tree.add_gate("no_perception", fta::GateType::kOr, {both, ecu}));

  const auto cuts = fta::minimal_cut_sets(tree);
  std::printf("minimal cut sets (%zu):\n", cuts.size());
  for (const auto& cut : cuts) {
    std::printf("  {");
    bool first = true;
    for (const auto e : cut) {
      std::printf("%s%s", first ? "" : ", ", tree.name(e).c_str());
      first = false;
    }
    std::puts("}");
  }
  std::printf("P(top) exact=%.6f  rare-event=%.6f  MCUB=%.6f\n",
              fta::exact_top_probability(tree),
              fta::rare_event_approximation(tree),
              fta::min_cut_upper_bound(tree));
  for (const char* name : {"power", "cam1", "ecu"}) {
    const auto imp = fta::importance(tree, tree.id_of(name));
    std::printf("  importance(%s): Birnbaum=%.4f FV=%.4f RAW=%.2f\n", name,
                imp.birnbaum, imp.fussell_vesely, imp.raw);
  }

  // ---- 1b. PRA-style epistemic propagation ----
  // The basic-event probabilities above are point estimates; in practice
  // they come with error factors. Propagating LogNormal(EF = 3) rate
  // uncertainty yields the percentile curve regulators actually ask for.
  std::puts("\n== epistemic uncertainty on the FTA result ==");
  {
    const auto events = tree.basic_events();
    std::vector<prob::LogNormal> uncertainty;
    for (const auto e : events) {
      uncertainty.emplace_back(std::log(tree.probability(e)),
                               std::log(3.0) / 1.6448536269514722);
    }
    prob::Rng rng(20200309);
    auto samples = fta::sample_top_probabilities(
        tree,
        [&](std::size_t i, prob::Rng& r) { return uncertainty[i].sample(r); },
        5000, rng);
    std::printf("P(top) with EF=3 rate uncertainty: p05=%.5f  median=%.5f  "
                "p95=%.5f (point %.5f)\n",
                prob::quantile(samples, 0.05), prob::quantile(samples, 0.5),
                prob::quantile(samples, 0.95),
                fta::exact_top_probability(tree));
  }

  // ---- 2. FTA -> BN: diagnosis ----
  std::puts("\n== same model as a Bayesian network: diagnosis ==");
  const auto compiled = fta::compile_to_bayesnet(tree);
  const bayesnet::InferenceEngine engine(compiled.network);
  const bayesnet::Evidence failed{{compiled.top, 1}};
  for (const char* name : {"power", "cam1", "ecu"}) {
    const auto post = engine.query(compiled.network.id_of(name), failed);
    std::printf("  P(%s failed | system failed) = %.4f\n", name, post.p(1));
  }

  // ---- 3. Evidential view of Table I (Sec. V.B) ----
  std::puts("\n== evidential (interval) analysis of the Table I chain ==");
  const auto net = perception::table1_network();
  const double eps = 0.03;  // elicitation imprecision on every CPT entry
  const auto prior = evidence::IntervalDistribution::widened(net.cpt_rows(0)[0], eps);
  std::vector<evidence::IntervalDistribution> rows;
  for (const auto& r : net.cpt_rows(1))
    rows.push_back(evidence::IntervalDistribution::widened(r, eps));
  const auto marg =
      evidence::credal_chain_marginal(prior, evidence::IntervalCpt(rows));
  const char* states[] = {"car", "pedestrian", "car/pedestrian", "none"};
  for (std::size_t y = 0; y < 4; ++y) {
    std::printf("  P(perception=%s) in [%.4f, %.4f]\n", states[y],
                marg.bound(y).lo(), marg.bound(y).hi());
  }
  const auto post =
      evidence::credal_chain_posterior(prior, evidence::IntervalCpt(rows), 3);
  std::printf("  P(unknown | none) in [%.4f, %.4f] "
              "(belief/plausibility envelope)\n",
              post.bound(2).lo(), post.bound(2).hi());

  // ---- 3b. Bow-tie: consequences via an event tree ----
  // The fault tree covers the causes of losing perception; the event
  // tree covers what happens downstream when an unknown object appears,
  // with interval-valued barrier credits.
  std::puts("\n== event tree: consequences of an unknown object ==");
  {
    fta::EventTree et("unknown object in path", 0.01);
    (void)et.add_barrier("perception raises 'none'/unknown",
                         prob::ProbInterval(0.75, 0.85));
    (void)et.add_barrier("AEB engages", prob::ProbInterval(0.93, 0.98));
    et.set_consequence({true, true}, "safe stop");
    et.set_consequence({true, false}, "mitigated impact");
    et.set_consequence({false, true}, "late stop");
    et.set_consequence({false, false}, "collision");
    for (const char* c : {"safe stop", "late stop", "collision"}) {
      const auto f = et.consequence_frequency(c);
      std::printf("  f(%-16s) in [%.3e, %.3e]\n", c, f.lo(), f.hi());
    }
  }

  // ---- 3c. Most probable explanation of a system failure ----
  std::puts("\n== most probable explanation (MPE) of 'system failed' ==");
  {
    const auto mpe = bayesnet::enumerate_mpe(compiled.network, failed);
    std::printf("  P = %.4f:", mpe.probability);
    for (bayesnet::VariableId v = 0; v < compiled.network.size(); ++v) {
      if (compiled.network.parents(v).empty() && mpe.assignment[v] == 1) {
        std::printf(" %s=failed", compiled.network.variable(v).name().c_str());
      }
    }
    std::puts("  (single-point power loss dominates)");
  }

  // ---- 4. Means recommendation from the taxonomy ----
  std::puts("\n== taxonomy: methods addressing ontological uncertainty ==");
  const auto reg = core::MethodRegistry::paper_catalog();
  for (const auto& m : reg.by_type(core::UncertaintyType::kOntological)) {
    std::printf("  [%s, %s] %s (%s)\n", core::to_string(m.mean),
                core::to_string(m.phase), m.name.c_str(), m.reference.c_str());
  }
  return 0;
}
