// E9 — Sec. V: FTA vs the BN approach. "While FTA is quite popular ...
// the failure oriented nature of FTA limits the ability to include human
// factors or nominal performance ... the cause and effect relationship
// between events is deterministic."
//
// Measured: (a) quantitative agreement where both formalisms apply,
// (b) what only the BN can express (diagnosis, non-failure states,
// soft/interval relations), (c) cost scaling of both engines.
#include <chrono>
#include <cstdio>

#include "bayesnet/engine.hpp"
#include "fta/analysis.hpp"
#include "fta/fta_to_bn.hpp"
#include "perception/table1.hpp"
#include "prob/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A k-channel perception system with shared power and a voter.
sysuq::fta::FaultTree make_tree(std::size_t channels) {
  using namespace sysuq::fta;
  FaultTree t;
  const auto power = t.add_basic_event("power", 0.01);
  std::vector<NodeId> chans;
  for (std::size_t c = 0; c < channels; ++c) {
    const auto cam = t.add_basic_event("cam" + std::to_string(c), 0.05);
    chans.push_back(t.add_gate("ch" + std::to_string(c), GateType::kOr,
                               {power, cam}));
  }
  // Majority of channels must fail: KooN with k = floor(n/2)+1.
  const auto voter = t.add_gate("voter", GateType::kKooN, chans,
                                channels / 2 + 1);
  const auto ecu = t.add_basic_event("ecu", 0.002);
  t.set_top(t.add_gate("top", GateType::kOr, {voter, ecu}));
  return t;
}

}  // namespace

int main() {
  using namespace sysuq;

  std::puts("==== E9: FTA vs Bayesian-network analysis (Sec. V) ====\n");

  // ---- (a) agreement where both apply ----
  std::puts("(a) quantitative agreement, 3-channel system:");
  const auto tree = make_tree(3);
  const double p_fta = fta::exact_top_probability(tree);
  const auto compiled = fta::compile_to_bayesnet(tree);
  const bayesnet::InferenceEngine ve(
      compiled.network, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
  const double p_bn = ve.query(compiled.top).p(1);
  std::printf("  P(top) FTA exact = %.8f | BN inference = %.8f | diff %.1e\n",
              p_fta, p_bn, std::fabs(p_fta - p_bn));
  const auto cuts = fta::minimal_cut_sets(tree);
  std::printf("  minimal cut sets: %zu (rare-event approx %.8f, MCUB %.8f)\n",
              cuts.size(), fta::rare_event_approximation(tree),
              fta::min_cut_upper_bound(tree));

  // ---- (b) what FTA cannot express ----
  std::puts("\n(b) beyond FTA's deterministic failure logic:");
  // Diagnosis (posterior root-cause ranking).
  const bayesnet::Evidence failed{{compiled.top, 1}};
  std::printf("  diagnosis P(power|top) = %.4f, P(cam0|top) = %.4f, "
              "P(ecu|top) = %.4f\n",
              ve.query(compiled.network.id_of("power"), failed).p(1),
              ve.query(compiled.network.id_of("cam0"), failed).p(1),
              ve.query(compiled.network.id_of("ecu"), failed).p(1));
  // Non-failure (nominal performance) states: the Table I network mixes
  // correct operation, degraded ambiguity, and the unknown state in one
  // model — FTA has no vocabulary for the car/pedestrian state.
  const auto table1 = perception::table1_network();
  const bayesnet::InferenceEngine tve(
      table1, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
  std::printf("  nominal+degraded states in one model: P(car/pedestrian) = "
              "%.4f (no FTA equivalent)\n",
              tve.query(1).p(perception::kPercCarPedestrian));
  // Probabilistic (uncertain) cause-effect relations: CPT rows are soft,
  // where FTA gates are Boolean.
  std::printf("  soft causality: P(none | gt=car) = %.4f vs Boolean gate 0/1\n",
              table1.cpt_row(1, {perception::kGtCar}).p(perception::kPercNone));

  // ---- (c) scaling ----
  std::puts("\n(c) cost scaling with channel count:");
  std::puts("  channels  cut sets   FTA exact (ms)   BN VE (ms)");
  for (const std::size_t k : {3u, 5u, 7u, 9u, 11u}) {
    const auto t = make_tree(k);
    const auto t0 = Clock::now();
    const double p = fta::exact_top_probability(t);
    const double fta_ms = ms_since(t0);
    const auto c = fta::compile_to_bayesnet(t);
    const bayesnet::InferenceEngine cve(
        c.network, {.threads = 1, .backend = bayesnet::Backend::kVariableElimination});
    const auto t1 = Clock::now();
    const double q = cve.query(c.top).p(1);
    const double bn_ms = ms_since(t1);
    std::printf("  %8zu  %8zu   %12.3f   %10.3f   (|diff| %.1e)\n", k,
                fta::minimal_cut_sets(t).size(), fta_ms, bn_ms,
                std::fabs(p - q));
  }
  std::puts("\n  -> shape: identical numbers where both formalisms apply;");
  std::puts("     the BN adds diagnosis, nominal-performance and soft");
  std::puts("     causality at comparable cost — the paper's Sec. V case.");
  return 0;
}
