// Factors (potentials) over sets of discrete variables, with the algebra
// needed by variable elimination: product, marginalization, reduction.
// A Factor owns its table and validates its arguments; the algebra itself
// is the flat kernels' (bayesnet/kernels.hpp), which every method calls.
#pragma once

#include <cstddef>
#include <vector>

#include "bayesnet/variable.hpp"

namespace sysuq::bayesnet {

/// A non-negative table over the Cartesian product of its scope's state
/// spaces. Scope is kept sorted by VariableId so factor products align.
///
/// Indexing: values are stored row-major with the *last* scope variable
/// varying fastest.
class Factor {
 public:
  /// Constructs a factor; `scope` must be strictly increasing; `cards`
  /// parallel to scope; `values.size()` must equal the product of cards.
  Factor(std::vector<VariableId> scope, std::vector<std::size_t> cards,
         std::vector<double> values);

  /// The constant factor 1 over an empty scope.
  [[nodiscard]] static Factor unit();

  [[nodiscard]] const std::vector<VariableId>& scope() const { return scope_; }
  [[nodiscard]] const std::vector<std::size_t>& cardinalities() const {
    return cards_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// True if `v` appears in the scope.
  [[nodiscard]] bool contains(VariableId v) const;

  /// Value at a full assignment of the scope variables (states parallel
  /// to scope order).
  [[nodiscard]] double at(const std::vector<std::size_t>& states) const;

  /// Pointwise product; scopes are merged (union). Throws
  /// std::invalid_argument when a shared variable's cardinalities differ.
  [[nodiscard]] Factor product(const Factor& other) const;

  /// Sums out one variable from the scope (std::invalid_argument unless
  /// it is in the scope).
  [[nodiscard]] Factor marginalize(VariableId v) const;

  /// Fixes every scope variable `evidence` observes at its state; those
  /// variables leave the scope, and evidence off the scope is ignored
  /// (`kernels::reduce`). Throws std::out_of_range for an observed state
  /// past its cardinality.
  [[nodiscard]] Factor reduce(const Evidence& evidence) const;

  /// reduce() by one observation, with no map built; throws
  /// std::invalid_argument unless `v` is in the scope.
  [[nodiscard]] Factor reduce(VariableId v, std::size_t state) const;

  /// Normalizes so all values sum to 1; throws if the sum is zero
  /// (evidence with zero probability).
  [[nodiscard]] Factor normalized() const;

  /// Sum of all values.
  [[nodiscard]] double total() const;

 private:
  std::vector<VariableId> scope_;
  std::vector<std::size_t> cards_;
  std::vector<double> values_;

  /// Converts a per-scope-variable state vector to a flat index.
  [[nodiscard]] std::size_t flat_index(const std::vector<std::size_t>& states) const;
};

}  // namespace sysuq::bayesnet
