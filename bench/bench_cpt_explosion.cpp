// E11 — Sec. V.B: "the number of parameters that need to be elicited in
// the CPT grows exponentially with the number of parent nodes and their
// states ... several techniques to deal with this problem are available
// [37]-[39]."
//
// Measured: elicited-parameter counts full CPT vs noisy-OR vs ranked
// nodes (Fenton et al. [37]); fidelity of the ranked-node compression;
// exact-inference cost versus parent count with the loopy-BP column
// next to it (point gap vs exact, certified bound width, iterations);
// and the treewidth-hostile grid regime where the exact plans blow past
// the engine's feasibility ceiling and only BP keeps answering.
//
// With `--manifest out.json`, also writes a run manifest: the workload
// shape, the results (correctness figures, iteration counts, bound
// widths, raw ms), and the obs metrics registry. Raw ms are
// machine-specific trajectory records; tools/bench_compare.py gates CI
// on the correctness and convergence figures only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bayesnet/builders.hpp"
#include "bayesnet/engine.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "core/tolerance.hpp"
#include "obs/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// w x h binary grid, parents = left and up neighbors; weakly coupled,
// strictly positive CPTs — the same pinned shape the differential suite
// uses for the kAuto escalation check.
sysuq::bayesnet::BayesianNetwork grid_network(std::size_t w, std::size_t h) {
  using namespace sysuq;
  bayesnet::BayesianNetwork net;
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t c = 0; c < w; ++c)
      net.add_variable("g" + std::to_string(r) + "_" + std::to_string(c),
                       {"0", "1"});
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const bayesnet::VariableId v = r * w + c;
      std::vector<bayesnet::VariableId> parents;
      if (c > 0) parents.push_back(v - 1);  // left
      if (r > 0) parents.push_back(v - w);  // up
      std::vector<prob::Categorical> cpt;
      const std::size_t rows = std::size_t{1} << parents.size();
      for (std::size_t row = 0; row < rows; ++row) {
        double p1 = 0.35;
        for (std::size_t k = 0; k < parents.size(); ++k)
          if ((row >> k) & 1u) p1 += 0.1;
        cpt.push_back(prob::Categorical({1.0 - p1, p1}));
      }
      net.set_cpt(v, std::move(parents), std::move(cpt));
    }
  }
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysuq;

  std::string manifest_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_cpt_explosion [--manifest out.json]\n");
      return 2;
    }
  }

  std::puts("==== E11: CPT parameter explosion and its mitigations ====\n");

  // ---- parameter counts ----
  std::puts("(a) elicited parameters for one binary child of n binary "
            "parents:");
  std::puts("  parents    full CPT    noisy-OR    ranked (w, sigma)");
  for (const std::size_t n : {2u, 4u, 6u, 8u, 10u, 12u, 16u, 20u}) {
    const std::size_t full =
        bayesnet::full_cpt_parameter_count(std::vector<std::size_t>(n, 2), 2);
    std::printf("  %7zu  %10zu  %10zu  %12zu\n", n, full, n + 1, n + 1);
  }
  std::puts("  -> shape: 2^n vs n+1 — the exponential elicitation burden the");
  std::puts("     paper flags, removed by structured CPT families.\n");

  // ---- ranked-node fidelity ----
  std::puts("(b) ranked-node compression of a monotone expert CPT "
            "(3 parents x 3 states, 5-state child):");
  const std::vector<std::size_t> cards{3, 3, 3};
  const auto ranked = bayesnet::ranked_node_cpt(cards, {2.0, 1.0, 1.0}, 5, 0.2);
  std::printf("  rows generated: %zu from %zu parameters (vs %zu full)\n",
              ranked.size(), cards.size() + 1,
              bayesnet::full_cpt_parameter_count(cards, 5));
  const auto mean_rank = [](const prob::Categorical& c) {
    double m = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      m += static_cast<double>(i) * c.p(i);
    return m;
  };
  std::printf("  child mean rank sweep: low parents %.2f -> mixed %.2f -> "
              "high parents %.2f (monotone)\n",
              mean_rank(ranked.front()), mean_rank(ranked[ranked.size() / 2]),
              mean_rank(ranked.back()));

  // ---- inference cost vs parent count: exact VE next to loopy BP ----
  std::puts("\n(c) inference for a noisy-OR child of n binary parents — "
            "exact VE vs loopy BP with certified bounds:");
  std::puts("  parents   CPT rows    VE (ms)    BP (ms)   iters"
            "   |BP-VE|     width");
  bool bp_converged = true;
  bool feasible_intervals_contain_exact = true;
  double feasible_max_abs_gap = 0.0;
  double feasible_max_width = 0.0;
  std::size_t feasible_max_iterations = 0;
  double ms_ve_16 = 0.0, ms_bp_16 = 0.0;
  for (const std::size_t n : {4u, 8u, 12u, 16u}) {
    bayesnet::BayesianNetwork net;
    std::vector<bayesnet::VariableId> parents;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = net.add_variable("p" + std::to_string(i), {"0", "1"});
      net.set_cpt(id, {}, {prob::Categorical({0.9, 0.1})});
      parents.push_back(id);
    }
    const auto child = net.add_variable("child", {"0", "1"});
    net.set_cpt(child, parents,
                bayesnet::noisy_or_cpt(std::vector<double>(n, 0.3), 0.01));

    const bayesnet::InferenceEngine ve(
        net, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
    const auto t0 = Clock::now();
    const auto exact = ve.query(child);
    const double ve_ms = ms_since(t0);

    const auto t1 = Clock::now();
    const bayesnet::LoopyBP bp(net, {});
    const double bp_ms = ms_since(t1);
    const auto& bounded = bp.query(child);

    double gap = 0.0;
    for (std::size_t s = 0; s < exact.size(); ++s)
      gap = std::max(gap, std::abs(bounded.point.p(s) - exact.p(s)));
    bp_converged = bp_converged && bp.converged();
    feasible_intervals_contain_exact =
        feasible_intervals_contain_exact && bounded.contains(exact.probs());
    feasible_max_abs_gap = std::max(feasible_max_abs_gap, gap);
    feasible_max_width = std::max(feasible_max_width, bounded.width());
    feasible_max_iterations =
        std::max(feasible_max_iterations, bp.iterations());
    if (n == 16u) {
      ms_ve_16 = ve_ms;
      ms_bp_16 = bp_ms;
    }
    std::printf("  %7zu  %9zu  %9.3f  %9.3f  %6zu  %.2e  %.2e\n", n,
                std::size_t{1} << n, ve_ms, bp_ms, bp.iterations(), gap,
                bounded.width());
  }
  std::puts("  -> BP's per-iteration cost is linear in the total CPT size;");
  std::puts("     its certified interval brackets the exact posterior, so");
  std::puts("     the approximation error is visible, not assumed.\n");

  // ---- the regime exact inference cannot enter ----
  constexpr std::size_t kGridSide = 20;
  std::printf("(d) %zux%zu binary grid (%zu variables): the min-fill plan's\n",
              kGridSide, kGridSide, kGridSide * kGridSide);
  std::puts("    largest table is exponential in the grid side, so kAuto");
  std::puts("    escalates past the exact backends to BP:");
  const auto grid = grid_network(kGridSide, kGridSide);
  bayesnet::InferenceEngine engine(
      grid, {.threads = 2,
             .backend = bayesnet::Backend::kAuto,
             .max_exact_table_cells = std::size_t{1} << 20});
  const auto t2 = Clock::now();
  const auto grid_marginals = engine.all_marginals_bounded({});
  const double grid_ms = ms_since(t2);
  const auto grid_profile =
      engine.explain(kGridSide * kGridSide / 2 + kGridSide / 2, {});
  bool grid_converged = true;
  double grid_max_width = 0.0;
  for (const auto& b : grid_marginals) {
    grid_converged = grid_converged && b.converged;
    grid_max_width = std::max(grid_max_width, b.width());
  }
  std::printf("    backend: %s (%s)\n", grid_profile.backend.c_str(),
              grid_profile.bp_converged ? "converged" : "iteration cap");
  std::printf("    all %zu bounded marginals in %.1f ms, %zu iterations, "
              "max certified width %.3f\n",
              grid_marginals.size(), grid_ms, grid_profile.bp_iterations,
              grid_max_width);

  std::printf(
      "\nBENCH {\"bench\":\"cpt_explosion\",\"bp_converged\":%s,"
      "\"feasible_intervals_contain_exact\":%s,\"feasible_max_abs_gap\":%.3e,"
      "\"feasible_max_width\":%.3e,\"feasible_max_iterations\":%zu,"
      "\"grid_converged\":%s,\"grid_iterations\":%zu,"
      "\"grid_max_bound_width\":%.4f,\"ms_ve_16\":%.3f,\"ms_bp_16\":%.3f,"
      "\"ms_grid\":%.1f}\n",
      bp_converged ? "true" : "false",
      feasible_intervals_contain_exact ? "true" : "false",
      feasible_max_abs_gap, feasible_max_width, feasible_max_iterations,
      grid_converged ? "true" : "false", grid_profile.bp_iterations,
      grid_max_width, ms_ve_16, ms_bp_16, grid_ms);

  if (!manifest_path.empty()) {
    // BENCH_cpt_explosion.json: tracked manifest (docs/bench_trajectory.md).
    std::ofstream out(manifest_path);
    if (!out) {
      std::fprintf(stderr, "bench_cpt_explosion: cannot write manifest '%s'\n",
                   manifest_path.c_str());
      return 2;
    }
    char results[768];
    std::snprintf(
        results, sizeof(results),
        "{\"bp_converged\":%s,\"feasible_intervals_contain_exact\":%s,"
        "\"feasible_max_abs_gap\":%.3e,\"feasible_max_width\":%.3e,"
        "\"feasible_max_iterations\":%zu,\"grid_converged\":%s,"
        "\"grid_iterations\":%zu,\"grid_max_bound_width\":%.4f,"
        "\"ms_ve_16\":%.3f,\"ms_bp_16\":%.3f,\"ms_grid\":%.1f}",
        bp_converged ? "true" : "false",
        feasible_intervals_contain_exact ? "true" : "false",
        feasible_max_abs_gap, feasible_max_width, feasible_max_iterations,
        grid_converged ? "true" : "false", grid_profile.bp_iterations,
        grid_max_width, ms_ve_16, ms_bp_16, grid_ms);
    out << "{\"bench\":\"cpt_explosion\",\"schema\":1"
        << ",\"workload\":{\"noisy_or_parents\":[4,8,12,16]"
        << ",\"grid_side\":" << kGridSide
        << ",\"grid_variables\":" << kGridSide * kGridSide << "}"
        << ",\"results\":" << results
        << ",\"metrics\":" << obs::Registry::global().to_json() << "}\n";
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }

  // Exit gate: BP must converge everywhere it ran, and on the feasible
  // workloads its certified interval must bracket the exact posterior
  // with a small point gap (noisy-OR of independent parents is nearly
  // tree-like, so BP is near-exact there).
  return bp_converged && grid_converged &&
                 feasible_intervals_contain_exact &&
                 feasible_max_abs_gap <= 0.05
             ? 0
             : 1;
}
