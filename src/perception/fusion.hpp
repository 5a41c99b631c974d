// Multi-sensor fusion: the paper's *uncertainty tolerance* mean —
// "redundant architectures with diverse uncertainties" (Secs. IV, V).
//
// Three fusion strategies over k redundant sensors, plus a simulation
// harness that measures safety-relevant outcome rates under configurable
// sensor diversity and common-cause correlation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bayesnet/engine.hpp"
#include "perception/sensor.hpp"
#include "perception/world.hpp"
#include "prob/rng.hpp"

namespace sysuq::perception {

/// Fusion strategy for redundant sensor outputs.
enum class FusionRule {
  kMajorityVote,  ///< most frequent label; ties -> none (conservative)
  kNaiveBayes,    ///< product of per-sensor likelihoods under the priors
  kDempster,      ///< DS combination of discounted per-sensor masses
};

/// Outcome of one fused perception attempt.
struct FusionOutcome {
  std::size_t fused_label;  ///< 0..k-1 class or k = none
  bool correct;             ///< label matches a modeled true class
  bool hazardous;           ///< confidently wrong label for a modeled class,
                            ///< or a novel object labeled as a known class
};

/// Configuration of a redundant perception architecture.
struct RedundantArchitecture {
  std::vector<ConfusionSensor> sensors;
  FusionRule rule = FusionRule::kMajorityVote;
  /// Probability that all sensors see the *same* degraded row draw
  /// (common-cause: e.g. shared power/weather). 0 = fully independent.
  double common_cause_rate = 0.0;
  /// Reliability discount applied to each sensor's mass in kDempster.
  double discount = 0.1;
};

/// Fuses one encounter through the architecture; sensors draw
/// independently unless a common-cause event forces identical outputs.
[[nodiscard]] FusionOutcome fuse_once(const RedundantArchitecture& arch,
                                      const TrueWorld& world,
                                      const Encounter& encounter,
                                      prob::Rng& rng);

/// Aggregate metrics over a simulation campaign.
struct FusionMetrics {
  std::size_t encounters = 0;
  double accuracy = 0.0;        ///< correct label rate on modeled classes
  double hazard_rate = 0.0;     ///< hazardous outcome rate (see FusionOutcome)
  double none_rate = 0.0;       ///< fused "none" rate
  double novel_caught = 0.0;    ///< novel encounters fused to none (safe)
};

/// Runs `n` encounters and aggregates outcome rates.
[[nodiscard]] FusionMetrics simulate_fusion(const RedundantArchitecture& arch,
                                            const TrueWorld& world,
                                            std::size_t n, prob::Rng& rng);

/// Naive-Bayes fusion made explicit as a Bayesian network and served by a
/// shared InferenceEngine: one ground-truth class node (the developer
/// priors) with one observed-label child per sensor (its confusion rows as
/// CPT). The engine plans the network once, on the first query, and every
/// fused encounter runs that plan; a long fusion campaign pays the
/// planning cost once.
///
/// The decision rule matches FusionRule::kNaiveBayes: argmax of the
/// posterior if it is decisive (>= 0.5), otherwise abstain ("none", label
/// k); jointly impossible sensor outputs also abstain.
class BnFusion {
 public:
  BnFusion(const RedundantArchitecture& arch, const TrueWorld& world);

  // The engine holds a reference to the internal network.
  BnFusion(const BnFusion&) = delete;
  BnFusion& operator=(const BnFusion&) = delete;

  /// Posterior over the modeled classes given one hard label per sensor.
  /// Throws std::domain_error if the labels are jointly impossible.
  [[nodiscard]] prob::Categorical posterior(
      const std::vector<std::size_t>& labels) const;

  /// Fused decision: 0..k-1 class, or k = none/abstain.
  [[nodiscard]] std::size_t fuse(const std::vector<std::size_t>& labels) const;

  [[nodiscard]] const bayesnet::InferenceEngine& engine() const {
    return *engine_;
  }

 private:
  std::size_t classes_;
  std::size_t sensors_;
  bayesnet::BayesianNetwork net_;  // must outlive engine_
  bayesnet::VariableId truth_;
  std::vector<bayesnet::VariableId> sensor_nodes_;
  std::unique_ptr<bayesnet::InferenceEngine> engine_;
};

}  // namespace sysuq::perception
