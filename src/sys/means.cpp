#include "sys/means.hpp"

#include <stdexcept>

#include "prob/statistics.hpp"
#include "core/contracts.hpp"

namespace sysuq::sys {

PreventionReport apply_odd_restriction(
    const perception::TrueWorld& world,
    const std::vector<perception::ClassId>& keep, double novel_suppression) {
  SYSUQ_ASSERT_PROB(novel_suppression,
                    "apply_odd_restriction: novel_suppression");
  const auto [restricted, excluded] = world.modeled().restricted(keep);
  PreventionReport r{};
  r.excluded_encounter_fraction = excluded;
  r.novel_rate_before = world.novel_rate();
  r.novel_rate_after = world.novel_rate() * novel_suppression;
  r.epistemic_parameter_fraction =
      static_cast<double>(keep.size()) /
      static_cast<double>(world.modeled().class_count());
  return r;
}

RemovalLoop::RemovalLoop(const bayesnet::BayesianNetwork& truth,
                         bayesnet::BayesianNetwork& deployed,
                         bayesnet::VariableId child, std::size_t unknown_state,
                         double prior_alpha)
    : truth_(truth),
      deployed_(deployed),
      child_(child),
      unknown_state_(unknown_state),
      learner_(deployed, child, prior_alpha) {
  truth_.validate();
  deployed_.validate();
  SYSUQ_EXPECT(truth_.size() == deployed_.size(),
               "RemovalLoop: network size mismatch");
}

double RemovalLoop::model_gap() const {
  const auto learned = deployed_.cpt_rows(child_);
  const auto true_rows = truth_.cpt_rows(child_);
  if (learned.size() != true_rows.size())
    throw std::logic_error("RemovalLoop: CPT shape mismatch");
  double gap = 0.0;
  for (std::size_t r = 0; r < learned.size(); ++r)
    gap += learned[r].total_variation(true_rows[r]);
  return gap / static_cast<double>(learned.size());
}

std::vector<RemovalCheckpoint> RemovalLoop::run(
    const std::vector<std::size_t>& checkpoints, prob::Rng& rng) {
  SYSUQ_EXPECT(!checkpoints.empty(), "RemovalLoop::run: no checkpoints");
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    SYSUQ_EXPECT(checkpoints[i] > checkpoints[i - 1],
                 "RemovalLoop::run: checkpoints not increasing");
  }
  std::vector<RemovalCheckpoint> out;
  std::size_t seen = 0, ontological = 0;
  // Identify the root whose state encodes the ground truth: the child's
  // first parent (the Table I layout); unknown_state_ indexes its states.
  const auto& parents = deployed_.parents(child_);
  SYSUQ_EXPECT(!parents.empty(), "RemovalLoop: child has no parents");
  const auto gt = parents.front();

  for (const std::size_t target : checkpoints) {
    while (seen < target) {
      const auto sample = truth_.sample(rng);
      learner_.observe(sample);
      if (sample[gt] == unknown_state_) ++ontological;
      ++seen;
    }
    learner_.commit(deployed_);
    out.push_back(RemovalCheckpoint{seen, learner_.epistemic_width(),
                                    model_gap(), ontological});
  }
  return out;
}

ToleranceReport compare_tolerance(
    const perception::RedundantArchitecture& single,
    const perception::RedundantArchitecture& redundant,
    const perception::TrueWorld& world, std::size_t encounters,
    prob::Rng& rng) {
  ToleranceReport r{};
  prob::Rng rng_single = rng.split(1);
  prob::Rng rng_redundant = rng.split(2);
  r.single = perception::simulate_fusion(single, world, encounters, rng_single);
  r.redundant =
      perception::simulate_fusion(redundant, world, encounters, rng_redundant);
  r.hazard_reduction_factor =
      r.redundant.hazard_rate > 0.0
          ? r.single.hazard_rate / r.redundant.hazard_rate
          : std::numeric_limits<double>::infinity();
  return r;
}

ReleaseDecision assess_release(const ReleaseEvidence& evidence,
                               const ReleaseCriteria& criteria) {
  ReleaseDecision d{};
  if (evidence.field_observations > 0) {
    d.hazard_rate_upper =
        prob::wilson_interval(evidence.hazardous_events,
                              evidence.field_observations)
            .second;
  }
  if (evidence.field_observations < criteria.min_observations) {
    d.blockers.push_back("insufficient field observations (" +
                         std::to_string(evidence.field_observations) + " < " +
                         std::to_string(criteria.min_observations) + ")");
  }
  if (evidence.epistemic_width > criteria.max_epistemic_width) {
    d.blockers.push_back("epistemic uncertainty too high (width " +
                         std::to_string(evidence.epistemic_width) + ")");
  }
  if (evidence.missing_mass > criteria.max_missing_mass) {
    d.blockers.push_back("ontological uncertainty too high (missing mass " +
                         std::to_string(evidence.missing_mass) + ")");
  }
  if (d.hazard_rate_upper > criteria.max_hazard_rate_upper) {
    d.blockers.push_back("hazard-rate upper bound too high (" +
                         std::to_string(d.hazard_rate_upper) + ")");
  }
  d.ready = d.blockers.empty();
  return d;
}

}  // namespace sysuq::sys
