// Inference over Bayesian networks that needs no engine.
//
// Two families with the engine's contract (posterior marginal of a query
// variable given evidence):
//  * enumeration oracle — exact by brute force over the full joint; it
//    shares nothing with variable elimination but the CPT rows, so it is
//    the reference the tests check InferenceEngine against.
//  * likelihood weighting / rejection sampling — approximate; used to
//    demonstrate sampling-vs-exact tradeoffs in the Fig. 4 bench.
// Exact queries at scale — variable elimination, junction trees and loopy
// BP — go through InferenceEngine (bayesnet/engine.hpp).
//
// Every function here throws std::out_of_range for evidence naming an
// unknown variable or state (BayesianNetwork::check_evidence).
#pragma once

#include <cstddef>
#include <vector>

#include <string>

#include "bayesnet/network.hpp"
#include "prob/discrete.hpp"

namespace sysuq::bayesnet {

/// The one impossible-evidence error message used across every inference
/// entry point (`InferenceEngine` queries, `JunctionTree` and `LoopyBP`
/// marginals, `enumerate_posterior`, `enumerate_mpe`,
/// `likelihood_weighting`, `rejection_sampling`). All of them throw
/// `std::domain_error` with a message that starts with exactly this text
/// when P(evidence) = 0 (or, for the samplers, when no draw is consistent
/// with the evidence):
///
///   "bayesnet: impossible evidence (P(e) = 0): name=state[, name=state...]"
///
/// Evidence entries are listed in VariableId order using the network's
/// variable and state names; empty evidence renders as "(none)".
/// `likelihood_weighting` appends a suffix naming the attempted sample
/// count; every other entry point throws the text verbatim.
[[nodiscard]] std::string impossible_evidence_message(
    const BayesianNetwork& net, const Evidence& evidence);

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
