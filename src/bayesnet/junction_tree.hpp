// Junction-tree (clique-tree) exact inference: one calibration answers
// every marginal under one evidence assignment.
//
// Relationship to VariableElimination: same exact-inference contract and
// identical impossible-evidence error semantics, but a different cost
// profile. VE answers one query per elimination run; a JunctionTree pays
// one two-phase message pass (collect + distribute over the clique tree)
// and then reads *all* posterior marginals and P(e) off the calibrated
// beliefs. That is the right trade for the library's dominant workloads
// — fta::diagnose_top_event, evidential networks, perception::BnFusion —
// which issue many queries against the same network and evidence.
//
// Construction pipeline (reusing bayesnet/ordering and bayesnet/profile):
//  1. moralize + triangulate: a min-fill `compute_elimination_order` over
//     the moral graph with evidence vertices deleted, given (the engine's
//     cached one) or computed by the two-argument constructor;
//  2. elimination cliques: the step scopes of `simulate_elimination`
//     replaying it with `keep = {}`; a step one variable smaller than
//     an elimination-tree child joins that child's clique, the rest are
//     the maximal cliques;
//  3. clique tree: the elimination tree over those cliques (Blair &
//     Peyton 1993), other components' roots joined to the root;
//  4. evidence absorption: every CPT factor is reduced by the evidence
//     and assigned to its earliest-eliminated variable's clique;
//  5. calibration: sum-product collect toward the root, then distribute.
//     Messages are normalized as they flow and the log-normalizers are
//     accumulated, so P(e) is available in log space without underflow.
//
// Impossible evidence (P(e) = 0) is detected during collect; the tree
// then reports `log_evidence_probability() == -inf` and every marginal
// accessor throws std::domain_error with `impossible_evidence_message` —
// the same per-query semantics as the other engines.
//
// Thread safety: all accessors are const and safe to call concurrently
// once the constructor returns (marginals are extracted eagerly). The
// tree holds a reference to the network — the network must outlive the
// tree and must not be mutated while it is in use.
#pragma once

#include <cstddef>
#include <vector>

#include "bayesnet/network.hpp"
#include "bayesnet/ordering.hpp"
#include "prob/discrete.hpp"

namespace sysuq::bayesnet {

class JunctionTree {
 public:
  /// Builds the clique tree for `net` and calibrates it under `evidence`,
  /// triangulating with the min-fill ordering of the evidence keys.
  /// Throws std::out_of_range for unknown evidence ids; evidence with
  /// probability zero is absorbed silently here and surfaces as
  /// std::domain_error from the marginal accessors.
  explicit JunctionTree(const BayesianNetwork& net, const Evidence& evidence = {});

  /// Same, triangulating with `ordering`, which must eliminate exactly the
  /// unobserved variables (`compute_elimination_order(net, {}, keys)`);
  /// throws std::invalid_argument otherwise.
  JunctionTree(const BayesianNetwork& net, const Evidence& evidence,
               const EliminationOrdering& ordering);

  [[nodiscard]] const BayesianNetwork& network() const { return net_; }
  [[nodiscard]] const Evidence& evidence() const { return evidence_; }

  /// Posterior marginal P(v | evidence) off the calibrated beliefs; an
  /// observed variable returns its delta. Throws std::domain_error with
  /// `impossible_evidence_message` if P(evidence) = 0.
  [[nodiscard]] prob::Categorical query(VariableId v) const;

  /// All posterior marginals, indexed by VariableId (observed variables
  /// hold their deltas). Throws like `query` on impossible evidence.
  [[nodiscard]] const std::vector<prob::Categorical>& all_marginals() const;

  /// log P(evidence); -infinity when the evidence is impossible.
  [[nodiscard]] double log_evidence_probability() const { return log_evidence_; }

  /// P(evidence); 0 when the evidence is impossible.
  [[nodiscard]] double evidence_probability() const;

  // --- structure, for tests, benches and the obs instruments ---

  /// Maximal cliques of the triangulation, sorted scopes, in
  /// elimination order (where each clique's first step falls).
  [[nodiscard]] const std::vector<std::vector<VariableId>>& cliques() const {
    return cliques_;
  }
  [[nodiscard]] std::size_t clique_count() const { return cliques_.size(); }
  /// Variables in the largest clique (treewidth + 1 of the triangulation).
  [[nodiscard]] std::size_t max_clique_size() const { return max_clique_size_; }
  /// Wall seconds the constructor spent calibrating this tree from its
  /// ordering (computing the ordering excluded). Measured directly (not
  /// via obs), so `InferenceEngine::explain` can attribute calibration
  /// cost in every build mode.
  [[nodiscard]] double build_seconds() const { return build_seconds_; }
  /// Scratch-arena bytes live at the calibration's peak (captured before
  /// the final reset).
  [[nodiscard]] std::size_t arena_high_water_bytes() const {
    return arena_high_water_;
  }

 private:
  const BayesianNetwork& net_;
  Evidence evidence_;
  std::vector<std::vector<VariableId>> cliques_;
  std::vector<prob::Categorical> marginals_;  // one per variable
  std::size_t max_clique_size_ = 0;
  double log_evidence_ = 0.0;
  bool impossible_ = false;
  double build_seconds_ = 0.0;
  std::size_t arena_high_water_ = 0;

  void calibrate(const EliminationOrdering& ordering);
  [[noreturn]] void throw_impossible() const;
};

}  // namespace sysuq::bayesnet
