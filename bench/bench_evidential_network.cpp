// E10 — Sec. V.B: "an analysis method based on evidence theory in
// combination with Bayesian networks" (Simon, Weber & Evsukoff).
//
// Measured: belief/plausibility envelopes on the Table I outputs as the
// CPT elicitation imprecision grows; the powerset-state (Simon et al.)
// construction with explicit ignorance mass; and the combination-rule
// ablation (Dempster vs Yager vs Dubois-Prade) under sensor conflict.
#include <cstdio>

#include "bayesnet/engine.hpp"
#include "evidence/credal.hpp"
#include "evidence/evidential_network.hpp"
#include "perception/table1.hpp"

int main() {
  using namespace sysuq;

  std::puts("==== E10: evidential networks (Sec. V.B) ====\n");

  // ---- interval CPTs -> belief/plausibility envelopes ----
  const auto net = perception::table1_network();
  std::puts("(a) output envelopes vs CPT elicitation imprecision eps:");
  std::puts("  eps    P(car)              P(none)             P(unknown|none)");
  for (const double eps : {0.0, 0.01, 0.03, 0.06, 0.10}) {
    const auto prior =
        evidence::IntervalDistribution::widened(net.cpt_rows(0)[0], eps);
    std::vector<evidence::IntervalDistribution> rows;
    for (const auto& r : net.cpt_rows(1))
      rows.push_back(evidence::IntervalDistribution::widened(r, eps));
    const evidence::IntervalCpt cpt(rows);
    const auto marg = evidence::credal_chain_marginal(prior, cpt);
    const auto post = evidence::credal_chain_posterior(prior, cpt, 3);
    std::printf("  %.2f   [%.4f, %.4f]    [%.4f, %.4f]    [%.4f, %.4f]\n", eps,
                marg.bound(0).lo(), marg.bound(0).hi(), marg.bound(3).lo(),
                marg.bound(3).hi(), post.bound(2).lo(), post.bound(2).hi());
  }
  std::puts("  -> shape: eps=0 reproduces exact BN numbers; envelopes widen");
  std::puts("     monotonically — epistemic CPT imprecision surfaces as");
  std::puts("     belief/plausibility gaps instead of false precision.\n");

  // ---- Simon et al. powerset construction with ignorance mass ----
  std::puts("(b) powerset-state network with explicit ignorance:");
  evidence::Frame frame({"car", "pedestrian", "unknown"});
  std::puts("  ignorance  Bel(car)  Pl(car)   Bel({car,ped})  Pl({car,ped})");
  for (const double ig : {0.0, 0.05, 0.15, 0.30}) {
    bayesnet::BayesianNetwork ds_net;
    const auto gt = ds_net.add_variable(
        evidence::powerset_variable("gt_ds", frame));
    const evidence::MassFunction prior(
        frame, {{frame.singleton("car"), 0.6 * (1.0 - ig)},
                {frame.singleton("pedestrian"), 0.3 * (1.0 - ig)},
                {frame.singleton("unknown"), 0.1 * (1.0 - ig)},
                {frame.theta(), ig}});
    ds_net.set_cpt(gt, {}, {evidence::mass_to_categorical(prior)});
    const bayesnet::InferenceEngine ve(
        ds_net, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
    const auto marg = ve.query(gt);
    const auto car = evidence::belief_plausibility(frame, marg,
                                                   frame.singleton("car"));
    const auto cp = evidence::belief_plausibility(
        frame, marg, frame.make_set({"car", "pedestrian"}));
    std::printf("  %9.2f  %.4f    %.4f       %.4f         %.4f\n", ig,
                car.lo(), car.hi(), cp.lo(), cp.hi());
  }
  std::puts("  -> shape: Bel stays at the discounted prior while Pl absorbs");
  std::puts("     the ignorance mass — the [Bel, Pl] interval is the paper's");
  std::puts("     quantitative handle on acknowledged ontological doubt.\n");

  // ---- combination-rule ablation under conflict ----
  std::puts("(c) two conflicting sensors (one says car, one pedestrian, both "
            "90% committed):");
  const auto m1 = evidence::MassFunction(
      frame, {{frame.singleton("car"), 0.9}, {frame.theta(), 0.1}});
  const auto m2 = evidence::MassFunction(
      frame, {{frame.singleton("pedestrian"), 0.9}, {frame.theta(), 0.1}});
  std::printf("  conflict K = %.4f\n", m1.conflict(m2));
  const auto dem = evidence::dempster_combine(m1, m2);
  const auto yag = evidence::yager_combine(m1, m2);
  const auto dp = evidence::dubois_prade_combine(m1, m2);
  std::puts("  rule          m(car)   m(ped)   m({car,ped})  m(Theta)  "
            "nonspecificity");
  const auto print_rule = [&](const char* name,
                              const evidence::MassFunction& m) {
    std::printf("  %-12s  %.4f   %.4f     %.4f      %.4f      %.4f\n", name,
                m.mass(frame.singleton("car")),
                m.mass(frame.singleton("pedestrian")),
                m.mass(frame.make_set({"car", "pedestrian"})),
                m.mass(frame.theta()), m.nonspecificity());
  };
  print_rule("dempster", dem);
  print_rule("yager", yag);
  print_rule("dubois-prade", dp);
  std::puts("\n  -> shape: Dempster renormalizes the conflict away (sharp but");
  std::puts("     overconfident); Yager parks it on total ignorance;");
  std::puts("     Dubois-Prade keeps it on {car, pedestrian} — exactly the");
  std::puts("     epistemic indicator state Table I reserves for this case.");
  return 0;
}
