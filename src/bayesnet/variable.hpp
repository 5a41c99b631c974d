// Discrete random variables for the Bayesian-network layer.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace sysuq::bayesnet {

/// Index of a variable within a network (dense, 0-based).
using VariableId = std::size_t;

/// Evidence: observed states for a subset of variables.
using Evidence = std::map<VariableId, std::size_t>;

/// A named discrete variable with named states.
///
/// In the paper's Fig. 4 example: `ground_truth` with states
/// {car, pedestrian, unknown}, and `perception` with states
/// {car, pedestrian, car/pedestrian, none}.
class Variable {
 public:
  /// Constructs a variable; requires a non-empty name and >= 2 states
  /// with unique non-empty labels.
  Variable(std::string name, std::vector<std::string> states);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t cardinality() const { return states_.size(); }
  [[nodiscard]] const std::vector<std::string>& states() const { return states_; }
  [[nodiscard]] const std::string& state_name(std::size_t i) const;

  /// Index of a state by label; throws if absent.
  [[nodiscard]] std::size_t state_index(const std::string& label) const;

  /// True if the label names a state of this variable.
  // sysuq-lint-allow(contract-coverage): total boolean query over any label
  [[nodiscard]] bool has_state(const std::string& label) const;

 private:
  std::string name_;
  std::vector<std::string> states_;
};

/// A (variable, state) assignment used for evidence and queries.
struct Assignment {
  VariableId variable;
  std::size_t state;
};

}  // namespace sysuq::bayesnet
