// Inference over Bayesian networks.
//
// Three engines with one contract (posterior marginal of a query variable
// given evidence):
//  * VariableElimination — exact, per query; the reference the tests
//    check InferenceEngine against.
//  * enumeration oracle — exact by brute force; the test oracle.
//  * likelihood weighting / rejection sampling — approximate; used to
//    demonstrate sampling-vs-exact tradeoffs in the Fig. 4 bench.
#pragma once

#include <cstddef>
#include <vector>

#include <string>

#include "bayesnet/kernels.hpp"
#include "bayesnet/network.hpp"
#include "prob/discrete.hpp"
#include "prob/information.hpp"

namespace sysuq::bayesnet {

/// The one impossible-evidence error message used across every inference
/// entry point (`VariableElimination::query`/`joint`, `InferenceEngine`
/// queries, `enumerate_posterior`, `enumerate_mpe`, `likelihood_weighting`,
/// `rejection_sampling`). All of them throw `std::domain_error` with a
/// message that starts with exactly this text when P(evidence) = 0 (or,
/// for the samplers, when no draw is consistent with the evidence):
///
///   "bayesnet: impossible evidence (P(e) = 0): name=state[, name=state...]"
///
/// Evidence entries are listed in VariableId order using the network's
/// variable and state names; empty evidence renders as "(none)".
/// `likelihood_weighting` appends a suffix naming the attempted sample
/// count; every other entry point throws the text verbatim.
[[nodiscard]] std::string impossible_evidence_message(
    const BayesianNetwork& net, const Evidence& evidence);

/// Exact posterior P(query | evidence) by variable elimination with a
/// min-fill elimination ordering.
class VariableElimination {
 public:
  explicit VariableElimination(const BayesianNetwork& net);

  /// Posterior marginal of `query` given `evidence`. Throws
  /// std::domain_error with `impossible_evidence_message` if the evidence
  /// has probability zero.
  [[nodiscard]] prob::Categorical query(VariableId query,
                                        const Evidence& evidence = {}) const;

  /// Probability of the evidence, P(e).
  [[nodiscard]] double evidence_probability(const Evidence& evidence) const;

  /// Exact joint distribution of two distinct variables given evidence,
  /// as a JointTable (rows = a, cols = b) — feeds the conditional-entropy
  /// "surprise factor" measures.
  [[nodiscard]] prob::JointTable joint(VariableId a, VariableId b,
                                       const Evidence& evidence = {}) const;

 private:
  const BayesianNetwork& net_;

  /// Scaled elimination of everything but `keep`: the returned factor
  /// carries a log normalizer so deep-evidence chains cannot underflow
  /// the linear total to exact zero (see kernels::eliminate_scaled).
  [[nodiscard]] kernels::ScaledFactor eliminate_all_but(
      const std::vector<VariableId>& keep, const Evidence& evidence) const;
};

/// Exact posterior by full joint enumeration — O(prod of cardinalities).
/// Only for small networks; serves as the ground-truth oracle in tests.
[[nodiscard]] prob::Categorical enumerate_posterior(const BayesianNetwork& net,
                                                    VariableId query,
                                                    const Evidence& evidence = {});

/// Probability of an evidence assignment by enumeration.
[[nodiscard]] double enumerate_evidence_probability(const BayesianNetwork& net,
                                                    const Evidence& evidence);

/// Most probable explanation: the full joint assignment maximizing
/// P(x | evidence), with its (conditional) probability. Exhaustive —
/// intended for the small diagnostic networks this library builds;
/// throws std::domain_error if the evidence is impossible.
struct MpeResult {
  std::vector<std::size_t> assignment;  ///< one state per variable
  double probability;                   ///< P(assignment | evidence)
};
[[nodiscard]] MpeResult enumerate_mpe(const BayesianNetwork& net,
                                      const Evidence& evidence = {});

/// Approximate posterior by likelihood weighting with `samples` draws.
/// Throws std::domain_error if every sample receives weight zero
/// (evidence hitting zero CPT rows); the message is
/// `impossible_evidence_message` plus a " (likelihood weighting: all N
/// samples had weight zero)" suffix naming the attempted sample count.
/// Records the Kish effective sample size of each successful run on the
/// obs gauge `bayesnet.sampling.effective_sample_size`.
[[nodiscard]] prob::Categorical likelihood_weighting(const BayesianNetwork& net,
                                                     VariableId query,
                                                     const Evidence& evidence,
                                                     std::size_t samples,
                                                     prob::Rng& rng);

/// Approximate posterior by rejection sampling. Returns the accepted
/// count through `accepted` if non-null (to expose the rejection rate).
[[nodiscard]] prob::Categorical rejection_sampling(const BayesianNetwork& net,
                                                   VariableId query,
                                                   const Evidence& evidence,
                                                   std::size_t samples,
                                                   prob::Rng& rng,
                                                   std::size_t* accepted = nullptr);

}  // namespace sysuq::bayesnet
