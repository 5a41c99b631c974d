// Bayesian networks: directed acyclic graphs of discrete variables with
// conditional probability tables (CPTs).
//
// This is the graphical analysis model of the paper's Sec. V.B: "The BN is
// a Directed Acyclic Graph that consists of nodes and edges. Every node is
// a random variable... The effect of parent node on child node is
// determined by conditional probabilities."
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bayesnet/factor.hpp"
#include "bayesnet/variable.hpp"
#include "prob/discrete.hpp"
#include "prob/rng.hpp"

namespace sysuq::bayesnet {

class Arena;

/// The observed variable ids of `evidence`, ascending: its signature.
[[nodiscard]] inline std::vector<VariableId> evidence_keys(const Evidence& evidence) {
  std::vector<VariableId> keys;
  keys.reserve(evidence.size());
  for (const auto& [v, _] : evidence) keys.push_back(v);
  return keys;
}

/// A discrete Bayesian network under construction and query.
///
/// Build protocol: add all variables, then attach one CPT per variable
/// with `set_cpt`. The network `validate()`s acyclicity and CPT coverage;
/// queries require a validated (complete) network. Each CPT is stored
/// once, as its table: a `Factor` over the child and its parents (scope
/// ascending by id, last variable fastest, as the kernels' views read).
/// Each variable also keeps its children, ascending, which `set_cpt`
/// updates. Engines, junction trees and BP runs hold a reference to the
/// network and read its lists and tables, an engine from every worker
/// thread: the network must outlive them and must not be mutated while
/// they are in use.
class BayesianNetwork {
 public:
  /// Adds a variable; returns its id. Names must be unique
  /// (std::invalid_argument otherwise, in every build mode).
  VariableId add_variable(Variable v);

  /// Convenience: adds a variable from name + state labels.
  VariableId add_variable(const std::string& name,
                          std::vector<std::string> states);

  /// Attaches the CPT P(child | parents). `rows` holds one categorical
  /// over the child's states per parent configuration, ordered with the
  /// *last* parent varying fastest. A root node passes empty `parents`
  /// and a single row (its prior). A failed call (std::invalid_argument,
  /// e.g. a table size that overflows size_t, `child` among `parents`
  /// or a repeated parent) leaves the CPT and the child lists intact; a
  /// successful one moves `child` from its old parents' child lists to
  /// the new ones'.
  void set_cpt(VariableId child, std::vector<VariableId> parents,
               std::vector<prob::Categorical> rows);

  /// Number of variables.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Variable access.
  [[nodiscard]] const Variable& variable(VariableId id) const;
  [[nodiscard]] VariableId id_of(const std::string& name) const;
  [[nodiscard]] bool has_variable(const std::string& name) const;

  /// Parents of a node (empty for roots); requires a CPT to be set.
  [[nodiscard]] const std::vector<VariableId>& parents(VariableId id) const;

  /// Children of a node, ascending: the variables whose CPT lists it as
  /// a parent.
  [[nodiscard]] const std::vector<VariableId>& children(VariableId id) const;

  /// The CPT row for a child given a full parent-state assignment
  /// (parallel to `parents(child)`), copied off the table.
  [[nodiscard]] prob::Categorical cpt_row(
      VariableId child, const std::vector<std::size_t>& parent_states) const;

  /// All CPT rows of a child (last parent fastest), copied off the table.
  [[nodiscard]] std::vector<prob::Categorical> cpt_rows(VariableId child) const;

  /// The stored table of `child`'s CPT. Throws like `parents`.
  [[nodiscard]] const Factor& cpt_factor(VariableId child) const {
    if (child >= nodes_.size() || !nodes_[child].parents) missing_cpt(child);
    return nodes_[child].cpt;
  }

  /// Throws std::logic_error unless every variable has a CPT and the
  /// graph is acyclic. O(V + E): one `topological_order()`.
  void validate() const;

  /// Throws std::out_of_range if `evidence` names a variable past the
  /// network or a state past its variable's cardinality. Every exact and
  /// sampling entry point calls it before reading a CPT.
  void check_evidence(const Evidence& evidence) const;

  /// Topological order (parents before children); throws
  /// std::logic_error on a missing CPT or a cycle. Kahn's algorithm over
  /// the stored child lists, O(V + E); ready variables leave in FIFO
  /// order and each releases its children in ascending id, so the order
  /// (and every seeded `sample`) is fixed.
  [[nodiscard]] std::vector<VariableId> topological_order() const;

  /// Total number of free parameters: sum over nodes of
  /// (#parent configurations) * (cardinality - 1). This is the quantity
  /// whose exponential growth the paper flags ("the number of parameters
  /// ... grows exponentially with the number of parent nodes").
  [[nodiscard]] std::size_t parameter_count() const;

  /// d-separation: true if X and Y are conditionally independent given Z
  /// in the graph structure, i.e. a `bayes_ball` from x with z observed
  /// never visits y; false for x == y. Throws std::out_of_range for an
  /// unknown x, y or z id, and std::logic_error like `bayes_ball`.
  [[nodiscard]] bool d_separated(VariableId x, VariableId y,
                                 const std::vector<VariableId>& z) const;

  /// `bayes_ball`'s per-variable flags.
  enum BallMark : char { kObserved = 1, kVisited = 2, kTop = 4, kBottom = 8 };

  /// Bayes-ball (Shachter 1998) over the parent and child lists.
  /// `marks` holds one byte per variable, kObserved set on the observed
  /// ones and no other flag. A ball enters each of `sources` as if from
  /// a child. An unobserved variable passes a ball from a child up to its
  /// parents (setting kTop) and down to its children (setting kBottom),
  /// and one from a parent down only; an observed variable bounces a
  /// ball from a parent up to its parents (kTop) and blocks one from a
  /// child. Every variable a ball reaches gets kVisited, blocked visits
  /// included. kTop and kBottom are each set once, so each edge is walked
  /// at most twice, and the marks do not depend on the visiting order.
  /// The kTop variables are the CPTs P(sources | observed) depends on;
  /// the unvisited ones are d-separated from `sources`. Throws
  /// std::out_of_range for an unknown source id, std::invalid_argument
  /// unless `marks` has one byte per variable, and std::logic_error when
  /// a ball must pass up through a variable whose CPT is not set (its
  /// parents are unknown). The balls in flight, at most
  /// 2·|edges| + |sources|, live in `scratch` until the caller resets it.
  void bayes_ball(std::span<const VariableId> sources, std::span<char> marks,
                  Arena& scratch) const;

  /// Draws a full joint sample in topological order (defined with the
  /// other samplers, in inference.cpp).
  [[nodiscard]] std::vector<std::size_t> sample(prob::Rng& rng) const;

  /// Replaces the CPT rows of `child` keeping its parent set. Used by the
  /// uncertainty-removal loop when field observations update the model.
  void update_cpt_rows(VariableId child, std::vector<prob::Categorical> rows);

 private:
  struct Node {
    Variable var;
    std::optional<std::vector<VariableId>> parents;  ///< set with the CPT
    Factor cpt;  ///< the CPT's table; meaningful once `parents` is set
    std::vector<VariableId> children;  ///< ascending; kept by set_cpt
  };

  std::vector<Node> nodes_;
  std::map<std::string, VariableId> by_name_;

  void check_id(VariableId id) const;
  /// Throws std::out_of_range or, for a missing CPT, std::logic_error.
  [[noreturn]] void missing_cpt(VariableId id) const;
};

/// The stride of each of `vars` in a row-major table laid out over the
/// variables `table`, in that order (last fastest); 0 where `table` lacks
/// it.
[[nodiscard]] std::vector<std::size_t> strides_in(
    const BayesianNetwork& net, const std::vector<VariableId>& vars,
    const std::vector<VariableId>& table);

}  // namespace sysuq::bayesnet
