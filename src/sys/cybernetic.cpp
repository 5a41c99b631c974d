#include "sys/cybernetic.hpp"

#include <stdexcept>
#include "core/contracts.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::sys {

CyberneticLoop::CyberneticLoop(const perception::TrueWorld& world,
                               const perception::ConfusionSensor& sensor,
                               const DecisionCosts& costs)
    : world_(world), sensor_(sensor), costs_(costs) {
  SYSUQ_EXPECT(costs.wrong_label > 0.0 && costs.abstention >= 0.0,
               "CyberneticLoop: bad costs");
  SYSUQ_EXPECT(sensor.row_count() >= world.total_class_count(),
               "CyberneticLoop: sensor lacks rows for the true world's classes");
  counts_.assign(world.modeled().class_count(),
                 std::vector<std::size_t>(sensor.output_cardinality(), 0));
}

std::vector<prob::Categorical> CyberneticLoop::learned_rows() const {
  std::vector<prob::Categorical> rows;
  rows.reserve(counts_.size());
  for (const auto& row : counts_) {
    std::vector<double> w(row.size());
    for (std::size_t i = 0; i < row.size(); ++i)
      w[i] = static_cast<double>(row[i]) + 1.0;  // Laplace smoothing
    rows.push_back(prob::Categorical::normalized(std::move(w)));
  }
  return rows;
}

std::vector<prob::Categorical> CyberneticLoop::true_rows() const {
  std::vector<prob::Categorical> rows;
  const std::size_t k = world_.modeled().class_count();
  rows.reserve(k);
  for (std::size_t c = 0; c < k; ++c) rows.push_back(sensor_.row(c));
  return rows;
}

double CyberneticLoop::model_gap() const {
  const auto learned = learned_rows();
  const auto truth = true_rows();
  double gap = 0.0;
  for (std::size_t c = 0; c < learned.size(); ++c)
    gap += learned[c].total_variation(truth[c]);
  return gap / static_cast<double>(learned.size());
}

double CyberneticLoop::policy_cost(
    const std::vector<prob::Categorical>& model_rows, prob::Rng& rng,
    std::size_t eval_samples) const {
  const std::size_t k = world_.modeled().class_count();
  const auto& priors = world_.modeled().priors();

  // Decision rule per output: act on the MAP class iff its posterior
  // confidence beats the cost-indifference threshold.
  const double act_threshold = 1.0 - costs_.abstention / costs_.wrong_label;
  std::vector<std::size_t> action(sensor_.output_cardinality(), k);  // k=abstain
  for (std::size_t o = 0; o < sensor_.output_cardinality(); ++o) {
    std::vector<double> post(k);
    double total = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      post[c] = priors.p(c) * model_rows[c].p(o);
      // sysuq-lint-allow(log-domain): the Bayes normalizer of k class posteriors, read once against the action threshold
      total += post[c];
    }
    if (!(total > 0.0)) continue;  // abstain on impossible outputs
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (post[c] > post[best]) best = c;
    }
    if (post[best] / total >= act_threshold) action[o] = best;
  }

  // Evaluate the policy against the TRUE world and TRUE sensor.
  double cost = 0.0;
  for (std::size_t s = 0; s < eval_samples; ++s) {
    const auto enc = world_.sample(rng);
    const auto out = sensor_.classify(enc.true_class, rng);
    const std::size_t act = action[out.label];
    if (act == k) {
      cost += costs_.abstention;
    } else if (enc.modeled && act == enc.true_class) {
      cost += costs_.correct;
    } else {
      cost += costs_.wrong_label;
    }
  }
  return cost / static_cast<double>(eval_samples);
}

std::vector<LoopCheckpoint> CyberneticLoop::run(
    const std::vector<std::size_t>& checkpoints, prob::Rng& rng) {
  SYSUQ_EXPECT(!checkpoints.empty(), "CyberneticLoop::run: no checkpoints");
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    SYSUQ_EXPECT(checkpoints[i] > checkpoints[i - 1],
                 "CyberneticLoop::run: not increasing");
  }
  auto& registry = obs::Registry::global();
  obs::Counter& encounters = registry.counter("core.cybernetic.encounters");
  obs::Counter& checkpoint_counter =
      registry.counter("core.cybernetic.checkpoints");
  const obs::Span span("core.cybernetic.run");
  std::vector<LoopCheckpoint> out;
  constexpr std::size_t kEvalSamples = 20000;
  for (const std::size_t target : checkpoints) {
    while (seen_ < target) {
      const auto enc = world_.sample(rng);
      const auto obs = sensor_.classify(enc.true_class, rng);
      // Field observation: only encounters the organization can label
      // post-hoc against its ontology enter the codified model.
      if (enc.modeled) counts_[enc.true_class][obs.label] += 1;
      ++seen_;
      encounters.inc();
    }
    checkpoint_counter.inc();
    LoopCheckpoint cp{};
    cp.observations = seen_;
    cp.model_gap = model_gap();
    // Common random numbers: both policies face the identical encounter
    // and sensor stream, so the regret is exactly the policy difference.
    prob::Rng eval_rng_a = rng.split(seen_ * 2 + 1);
    prob::Rng eval_rng_b = eval_rng_a;
    cp.actual_cost = policy_cost(learned_rows(), eval_rng_a, kEvalSamples);
    cp.oracle_cost = policy_cost(true_rows(), eval_rng_b, kEvalSamples);
    cp.regret = cp.actual_cost - cp.oracle_cost;
    out.push_back(cp);
  }
  return out;
}

}  // namespace sysuq::sys
