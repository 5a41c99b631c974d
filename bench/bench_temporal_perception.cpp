// Temporal perception: the Table I analysis running as an online filter.
//
// The paper's Fig. 4 is a single-frame diagnosis. Deployed perception
// integrates evidence over time; an HMM with the Table I CPT as emission
// model shows how temporal fusion sharpens all three uncertainty
// signals: the unknown posterior (ontological), the filtered entropy
// (epistemic indicator), and the hazard of acting on one frame vs the
// filtered belief.
#include <cstdio>

#include "markov/hmm.hpp"
#include "perception/table1.hpp"
#include "prob/statistics.hpp"

namespace {

using namespace sysuq;

markov::Hmm table1_hmm(double stickiness) {
  const auto net = perception::table1_network();
  const auto prior = net.cpt_rows(0)[0];
  std::vector<prob::Categorical> trans;
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> row(3, 0.0);
    double off = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      if (j != i) off += prior.p(j);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      row[j] = (j == i) ? stickiness : (1.0 - stickiness) * prior.p(j) / off;
    }
    trans.push_back(prob::Categorical::normalized(std::move(row)));
  }
  return markov::Hmm(prior, std::move(trans), net.cpt_rows(1));
}

}  // namespace

int main() {
  std::puts("==== temporal Table I: filtering the perception chain ====\n");

  // ---- unknown posterior vs consecutive 'none' frames ----
  std::puts("(a) P(unknown | k consecutive 'none' frames), stickiness 0.97:");
  std::puts("  frames   filtered P(unknown)   single-shot reference");
  const auto h = table1_hmm(0.97);
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u, 12u}) {
    const auto f =
        h.filter(std::vector<std::size_t>(k, perception::kPercNone));
    std::printf("  %6zu        %.4f               %s\n", k,
                f.filtered.back().p(2), k == 1 ? "0.6639" : "-");
  }
  std::puts("  -> shape: one frame gives the paper's 0.66; a short run of");
  std::puts("     misses pushes the ontological diagnosis past 0.99 —");
  std::puts("     temporal integration is removal-during-use at frame rate.\n");

  // ---- weak-evidence accumulation vs persistence model ----
  // 'none' is strong evidence (likelihood ratio ~18 per frame), so it
  // saturates in 2 frames regardless of dynamics; the *ambiguous*
  // car/pedestrian output (ratio 4 vs car) is where persistence matters.
  std::puts("(b) frames of sustained 'car/pedestrian' until P(unknown) > 0.8:");
  std::puts("  stickiness   frames needed");
  for (const double s : {0.5, 0.8, 0.95, 0.99}) {
    const auto hmm = table1_hmm(s);
    std::size_t needed = 0;
    for (std::size_t k = 1; k <= 80; ++k) {
      const auto f = hmm.filter(
          std::vector<std::size_t>(k, perception::kPercCarPedestrian));
      if (f.filtered.back().p(2) > 0.8) {
        needed = k;
        break;
      }
    }
    if (needed > 0) {
      std::printf("  %9.2f    %8zu\n", s, needed);
    } else {
      std::printf("  %9.2f         >80 (transitions wash the evidence out)\n",
                  s);
    }
  }
  std::puts("  -> shape: weak evidence only accumulates when the world is");
  std::puts("     persistent; a volatile world (stickiness 0.5) re-rolls the");
  std::puts("     object every frame and the ambiguous reading never");
  std::puts("     resolves — temporal tolerance has a persistence budget.\n");

  // ---- acting on frames vs acting on the filter ----
  std::puts("(c) hazardous-act rate on a simulated stream (5k frames,");
  std::puts("    stickiness 0.95; act = commit to car/ped when belief > 0.9):");
  const auto hmm = table1_hmm(0.95);
  prob::Rng rng(424242);
  const auto tr = hmm.sample(5000, rng);
  const auto filt = hmm.filter(tr.observations);
  std::size_t frame_acts = 0, frame_hazard = 0, filt_acts = 0, filt_hazard = 0;
  const auto rows = perception::table1_network().cpt_rows(1);
  for (std::size_t t = 0; t < 5000; ++t) {
    // Per-frame policy: trust the single observation's MAP diagnosis.
    const auto single =
        prob::Categorical::normalized({rows[0].p(tr.observations[t]) * 0.6,
                                       rows[1].p(tr.observations[t]) * 0.3,
                                       rows[2].p(tr.observations[t]) * 0.1});
    if (single.max_prob() > 0.9 && single.argmax() < 2) {
      ++frame_acts;
      frame_hazard += (tr.states[t] != single.argmax()) ? 1 : 0;
    }
    // Filtered policy.
    const auto& belief = filt.filtered[t];
    if (belief.max_prob() > 0.9 && belief.argmax() < 2) {
      ++filt_acts;
      filt_hazard += (tr.states[t] != belief.argmax()) ? 1 : 0;
    }
  }
  std::printf("  per-frame:  acts %zu/5000 (availability %.3f), hazardous "
              "rate %.4f\n",
              frame_acts, frame_acts / 5000.0,
              frame_acts ? static_cast<double>(frame_hazard) / frame_acts : 0.0);
  std::printf("  filtered :  acts %zu/5000 (availability %.3f), hazardous "
              "rate %.4f\n",
              filt_acts, filt_acts / 5000.0,
              filt_acts ? static_cast<double>(filt_hazard) / filt_acts : 0.0);
  std::puts("\n  -> shape: the filter commits on ambiguous frames the");
  std::puts("     per-frame policy must skip, raising availability at an");
  std::puts("     essentially unchanged hazard rate — temporal redundancy");
  std::puts("     trades in the same currency as spatial redundancy (E8).\n");

  // ---- Baum-Welch: removal without ground truth ----
  std::puts("(d) learning the temporal model from outputs alone (Baum-Welch,");
  std::puts("    20k-frame stream, no ground-truth labels):");
  {
    const auto truth_hmm = table1_hmm(0.95);
    prob::Rng r2(171717);
    const auto stream = truth_hmm.sample(20000, r2);
    const double truth_ll =
        truth_hmm.filter(stream.observations).log_likelihood;

    // Naive starting model: weakly-informative everything.
    markov::Hmm start(
        prob::Categorical({0.4, 0.35, 0.25}),
        {prob::Categorical({0.8, 0.1, 0.1}), prob::Categorical({0.1, 0.8, 0.1}),
         prob::Categorical({0.1, 0.1, 0.8})},
        {prob::Categorical({0.6, 0.2, 0.1, 0.1}),
         prob::Categorical({0.2, 0.6, 0.1, 0.1}),
         prob::Categorical({0.1, 0.1, 0.3, 0.5})});
    const double start_ll = start.filter(stream.observations).log_likelihood;
    const auto fitted = start.fit(stream.observations, 60, 1e-4);
    std::printf("  log-likelihood: start %.0f -> fitted %.0f (generator "
                "%.0f)\n",
                start_ll, fitted.log_likelihood, truth_ll);
    // Diagnosis quality with the learned model: accuracy of the filtered
    // MAP hidden state against the (held-back) ground truth.
    const auto f = fitted.model.filter(stream.observations);
    std::size_t correct = 0;
    for (std::size_t t = 0; t < stream.states.size(); ++t) {
      correct += f.filtered[t].argmax() == stream.states[t] ? 1 : 0;
    }
    std::printf("  filtered MAP accuracy of the fitted model: %.3f\n",
                static_cast<double>(correct) / stream.states.size());
  }
  std::puts("\n  -> shape: EM closes most of the likelihood gap from output");
  std::puts("     data alone — uncertainty removal keeps working even when");
  std::puts("     the field observations lack ground-truth labels.");
  return 0;
}
