// Evidential networks: Dempster–Shafer reasoning implemented on top of a
// Bayesian network, after Simon, Weber & Evsukoff (2008) — the method the
// paper proposes for safety analysis in Sec. V.B.
//
// Construction: each DS variable over a frame Θ becomes a BN node whose
// states are the *non-empty subsets* of Θ (the focal elements); a mass
// function is exactly a categorical over these powerset states. Standard
// exact BN inference then propagates masses, and belief/plausibility are
// recovered from the output node's marginal.
#pragma once

#include <string>
#include <vector>

#include "bayesnet/engine.hpp"
#include "bayesnet/network.hpp"
#include "evidence/frame.hpp"
#include "evidence/mass.hpp"
#include "prob/interval.hpp"

namespace sysuq::evidence {

/// Creates a BN variable whose states are the non-empty subsets of the
/// frame, labelled with `Frame::set_to_string`. State index i corresponds
/// to FocalSet(i + 1) (masks enumerated in increasing order).
[[nodiscard]] bayesnet::Variable powerset_variable(const std::string& name,
                                                   const Frame& frame);

/// Converts a mass function into a categorical over the powerset states
/// of its frame (for use as a root prior or evidence likelihood).
[[nodiscard]] prob::Categorical mass_to_categorical(const MassFunction& m);

/// Converts a categorical over powerset states back into a mass function.
[[nodiscard]] MassFunction categorical_to_mass(const Frame& frame,
                                               const prob::Categorical& c);

/// Belief/plausibility interval of hypothesis set `query` from a
/// categorical over powerset states (e.g. a BN posterior marginal).
[[nodiscard]] prob::ProbInterval belief_plausibility(
    const Frame& frame, const prob::Categorical& powerset_marginal,
    FocalSet query);

/// State index of a focal set within a powerset variable.
[[nodiscard]] std::size_t powerset_state_index(const Frame& frame, FocalSet s);

/// Posterior [Bel, Pl] of hypothesis `query` at powerset node `node`,
/// propagated through a shared InferenceEngine (so repeated evidential
/// queries reuse the engine's elimination plan). `node` must
/// be a powerset variable of `frame` in the engine's network. Throws
/// std::domain_error (impossible evidence) if P(evidence) = 0.
[[nodiscard]] prob::ProbInterval engine_belief_plausibility(
    const bayesnet::InferenceEngine& engine, const Frame& frame,
    bayesnet::VariableId node, FocalSet query,
    const bayesnet::Evidence& evidence = {});

/// Posterior mass function of powerset node `node` given evidence,
/// computed through the engine.
[[nodiscard]] MassFunction engine_posterior_mass(
    const bayesnet::InferenceEngine& engine, const Frame& frame,
    bayesnet::VariableId node, const bayesnet::Evidence& evidence = {});

}  // namespace sysuq::evidence
