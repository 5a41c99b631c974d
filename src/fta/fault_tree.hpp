// Static fault trees (FTA), the established safety-analysis method the
// paper contrasts with its evidential-BN proposal in Sec. V.
//
// A fault tree is a DAG of Boolean gates over basic events; the top event
// models the system-level failure. Basic events may be shared between
// gates (common-cause structure), which the exact probability engine
// handles by conditioning.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "prob/fuzzy.hpp"
#include "prob/interval.hpp"

namespace sysuq::fta {

/// Node index within a FaultTree (basic events and gates share the space).
using NodeId = std::size_t;

/// Gate types. kNot makes a tree non-coherent: cut-set and monotone
/// interval analyses refuse such trees, exact evaluation still works.
enum class GateType { kAnd, kOr, kKooN, kNot };

/// Returns a printable name for a gate type.
// sysuq-lint-allow(contract-coverage): total over the GateType enum
[[nodiscard]] const char* gate_type_name(GateType t);

/// A static fault tree under construction and analysis.
class FaultTree {
 public:
  /// Adds a basic event with failure probability p in [0, 1].
  NodeId add_basic_event(const std::string& name, double probability);

  /// Adds a gate over existing nodes. For kKooN, `k` must satisfy
  /// 1 <= k <= children.size(); for kNot exactly one child. A gate
  /// without children or breaking either rule throws
  /// std::invalid_argument in every build mode.
  NodeId add_gate(const std::string& name, GateType type,
                  std::vector<NodeId> children, std::size_t k = 0);

  /// Declares the top (undesired) event.
  void set_top(NodeId id);

  /// The declared top event; throws if unset.
  [[nodiscard]] NodeId top() const;

  /// Number of nodes (events + gates).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  /// Number of basic events.
  [[nodiscard]] std::size_t basic_event_count() const;

  [[nodiscard]] bool is_basic_event(NodeId id) const;
  [[nodiscard]] bool is_gate(NodeId id) const;
  [[nodiscard]] const std::string& name(NodeId id) const;
  [[nodiscard]] NodeId id_of(const std::string& name) const;
  [[nodiscard]] double probability(NodeId basic_event) const;
  [[nodiscard]] GateType gate_type(NodeId gate) const;
  [[nodiscard]] const std::vector<NodeId>& children(NodeId gate) const;
  [[nodiscard]] std::size_t koon_k(NodeId gate) const;

  /// Updates a basic event's probability (for sweeps / importance).
  void set_probability(NodeId basic_event, double p);

  /// All basic-event ids.
  [[nodiscard]] std::vector<NodeId> basic_events() const;

  /// True if the tree contains no kNot gates (monotone structure).
  [[nodiscard]] bool is_coherent() const;

  /// Throws std::logic_error unless the top is set and every gate's
  /// children exist (acyclicity is guaranteed by construction: children
  /// must precede their gate).
  void validate() const;

  /// Evaluates the structure function for a full basic-event state vector
  /// (indexed by basic-event id order as returned by basic_events()).
  [[nodiscard]] bool evaluate_structure(const std::vector<bool>& basic_state) const;

 private:
  struct Node {
    std::string name;
    bool is_basic;
    double probability = 0.0;               // basic events
    GateType type = GateType::kAnd;         // gates
    std::vector<NodeId> children;           // gates
    std::size_t k = 0;                      // kKooN
  };

  std::vector<Node> nodes_;
  std::optional<NodeId> top_;

  void check_id(NodeId id) const;
};

}  // namespace sysuq::fta
