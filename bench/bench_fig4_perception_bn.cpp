// E4 — Fig. 4: the perception Bayesian network end to end, plus the
// paper's scalability discussion ("can be scaled up to model the complete
// system and allows hierarchical refinement").
//
// Measures: agreement of the four inference engines on the Fig. 4
// network, their wall-clock cost, and exact-inference scaling as the
// chain is refined hierarchically (gt -> sensor -> tracker -> planner...).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bayesnet/engine.hpp"
#include "bayesnet/inference.hpp"
#include "perception/table1.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Hierarchical refinement: a chain gt -> n1 -> n2 -> ... -> nk, each stage
// a 4-state noisy relay of its predecessor.
sysuq::bayesnet::BayesianNetwork make_chain(std::size_t stages) {
  using namespace sysuq;
  auto net = perception::table1_network();
  bayesnet::VariableId prev = 1;
  for (std::size_t s = 0; s < stages; ++s) {
    const auto id = net.add_variable("stage" + std::to_string(s),
                                     {"car", "pedestrian", "ambiguous", "none"});
    std::vector<prob::Categorical> rows;
    for (std::size_t in = 0; in < 4; ++in) {
      std::vector<double> row(4, 0.03);
      row[in] = 0.91;
      rows.push_back(prob::Categorical::normalized(std::move(row)));
    }
    net.set_cpt(id, {prev}, std::move(rows));
    prev = id;
  }
  return net;
}

}  // namespace

int main() {
  using namespace sysuq;

  std::puts("==== E4: Fig. 4 — the perception BN under four inference "
            "engines ====\n");
  const auto net = perception::table1_network();
  const bayesnet::InferenceEngine ve(
      net, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
  const bayesnet::Evidence none_evidence{{1, perception::kPercNone}};

  prob::Rng rng(99);
  const auto t_ve = Clock::now();
  const auto exact = ve.query(0, none_evidence);
  const double ve_ms = ms_since(t_ve);

  const auto t_en = Clock::now();
  const auto enumd = bayesnet::enumerate_posterior(net, 0, none_evidence);
  const double en_ms = ms_since(t_en);

  const auto t_lw = Clock::now();
  const auto lw = bayesnet::likelihood_weighting(net, 0, none_evidence, 100000, rng);
  const double lw_ms = ms_since(t_lw);

  const auto t_rs = Clock::now();
  std::size_t accepted = 0;
  const auto rs =
      bayesnet::rejection_sampling(net, 0, none_evidence, 100000, rng, &accepted);
  const double rs_ms = ms_since(t_rs);

  std::puts("P(ground truth | perception = none):");
  std::printf("  %-22s car=%.4f ped=%.4f unknown=%.4f   (%.3f ms)\n",
              "variable elimination", exact.p(0), exact.p(1), exact.p(2), ve_ms);
  std::printf("  %-22s car=%.4f ped=%.4f unknown=%.4f   (%.3f ms)\n",
              "enumeration oracle", enumd.p(0), enumd.p(1), enumd.p(2), en_ms);
  std::printf("  %-22s car=%.4f ped=%.4f unknown=%.4f   (%.3f ms, 100k)\n",
              "likelihood weighting", lw.p(0), lw.p(1), lw.p(2), lw_ms);
  std::printf("  %-22s car=%.4f ped=%.4f unknown=%.4f   (%.3f ms, %zu acc)\n",
              "rejection sampling", rs.p(0), rs.p(1), rs.p(2), rs_ms, accepted);

  std::printf("\nmax |VE - enumeration| = %.2e (exact engines agree)\n",
              std::max({std::fabs(exact.p(0) - enumd.p(0)),
                        std::fabs(exact.p(1) - enumd.p(1)),
                        std::fabs(exact.p(2) - enumd.p(2))}));

  // ---- hierarchical refinement scaling ----
  std::puts("\nhierarchical refinement: chain gt -> perc -> stage1 -> ... ");
  std::puts("  stages  parameters  VE query (ms)  enumeration (ms)");
  for (const std::size_t stages : {0u, 2u, 4u, 6u, 8u, 10u}) {
    const auto chain = make_chain(stages);
    const bayesnet::InferenceEngine cve(
        chain, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
    const bayesnet::VariableId leaf = chain.size() - 1;

    const auto t0 = Clock::now();
    const auto q = cve.query(0, {{leaf, 3}});
    const double tve = ms_since(t0);

    double ten = -1.0;
    if (stages <= 6) {  // enumeration is 4^k — cap it
      const auto t1 = Clock::now();
      (void)bayesnet::enumerate_posterior(chain, 0, {{leaf, 3}});
      ten = ms_since(t1);
    }
    std::printf("  %6zu  %10zu  %12.3f  ", stages, chain.parameter_count(), tve);
    if (ten >= 0.0) {
      std::printf("%14.3f\n", ten);
    } else {
      std::puts("        (skipped)");
    }
    (void)q;
  }
  std::puts("\n  -> shape: VE stays linear in chain length while enumeration");
  std::puts("     blows up exponentially — the refinement the paper promises");
  std::puts("     is tractable with proper inference.");
  return 0;
}
