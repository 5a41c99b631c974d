// Compiles a fault tree into an equivalent Bayesian network.
//
// This realizes the paper's Sec. V observation that the BN approach
// "allows hierarchical refinement analogous to FTA": basic events become
// Bernoulli roots, gates become deterministic CPT nodes, and standard BN
// inference reproduces FTA's quantitative results — while also supporting
// everything FTA cannot express (diagnosis, soft evidence, extra states).
#pragma once

#include "bayesnet/engine.hpp"
#include "bayesnet/network.hpp"
#include "fta/fault_tree.hpp"

namespace sysuq::fta {

/// Result of the compilation: the network plus the id mapping.
struct CompiledNetwork {
  bayesnet::BayesianNetwork network;
  std::vector<bayesnet::VariableId> node_map;  ///< FTA NodeId -> BN VariableId
  bayesnet::VariableId top;                    ///< BN id of the top event
};

/// Compiles the fault tree. Every node becomes a binary variable with
/// states {"ok", "failed"}; gate CPTs are deterministic.
[[nodiscard]] CompiledNetwork compile_to_bayesnet(const FaultTree& tree);

/// Top-event diagnostics computed through a shared InferenceEngine — the
/// diagnosis direction FTA itself cannot express: condition on the top
/// event having failed and read back every node's failure posterior.
struct TopEventDiagnosis {
  double top_probability = 0.0;            ///< P(top = failed)
  /// Per FTA node (indexed like the tree): P(node = failed | top = failed).
  std::vector<double> posterior_given_top;
};

/// Runs the diagnosis as one engine batch (one query per node), all of
/// them running the engine's one elimination plan. `engine`
/// must be constructed over `compiled.network`. Throws std::domain_error
/// (impossible evidence) if the top event has probability zero.
[[nodiscard]] TopEventDiagnosis diagnose_top_event(
    const CompiledNetwork& compiled, bayesnet::InferenceEngine& engine);

}  // namespace sysuq::fta
