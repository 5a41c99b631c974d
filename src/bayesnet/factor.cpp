#include "bayesnet/factor.hpp"

#include <algorithm>
#include <stdexcept>

#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"

namespace sysuq::bayesnet {

Factor::Factor(std::vector<VariableId> scope, std::vector<std::size_t> cards,
               std::vector<double> values)
    : scope_(std::move(scope)), cards_(std::move(cards)), values_(std::move(values)) {
  SYSUQ_EXPECT(scope_.size() == cards_.size(),
               "Factor: scope/cards size mismatch");
  for (std::size_t i = 1; i < scope_.size(); ++i) {
    SYSUQ_EXPECT(scope_[i - 1] < scope_[i],
                 "Factor: scope must be strictly increasing");
  }
  const std::size_t expect = kernels::checked_table_size(
      cards_.data(), cards_.size(), "Factor: table size overflows size_t");
  SYSUQ_EXPECT(values_.size() == expect, "Factor: value count mismatch");
  SYSUQ_EXPECT(contracts::is_finite_nonneg(values_),
               "Factor: values must be finite and >= 0");
}

Factor Factor::unit() { return Factor({}, {}, {1.0}); }

bool Factor::contains(VariableId v) const {
  return std::binary_search(scope_.begin(), scope_.end(), v);
}

std::size_t Factor::flat_index(const std::vector<std::size_t>& states) const {
  if (states.size() != scope_.size())
    throw std::invalid_argument("Factor: assignment size mismatch");
  std::size_t idx = 0;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    if (states[i] >= cards_[i])
      throw std::out_of_range("Factor: state out of range");
    idx = idx * cards_[i] + states[i];
  }
  return idx;
}

double Factor::at(const std::vector<std::size_t>& states) const {
  return values_[flat_index(states)];
}

Factor Factor::product(const Factor& other) const {
  std::vector<VariableId> merged(scope_.size() + other.scope_.size());
  std::vector<std::size_t> merged_cards(merged.size());
  merged.resize(kernels::merge_scopes(kernels::view_of(*this), kernels::view_of(other),
                                      merged.data(), merged_cards.data()));
  merged_cards.resize(merged.size());
  const std::size_t total_size = kernels::checked_table_size(
      merged_cards.data(), merged_cards.size(),
      "Factor::product: table size overflows size_t");
  std::vector<double> out(total_size);
  kernels::product_into(kernels::view_of(*this), kernels::view_of(other),
                        merged.data(), merged_cards.data(), merged.size(),
                        out.data());
  return Factor(std::move(merged), std::move(merged_cards), std::move(out));
}

Factor Factor::marginalize(VariableId v) const {
  const auto it = std::lower_bound(scope_.begin(), scope_.end(), v);
  if (it == scope_.end() || *it != v)
    throw std::invalid_argument("Factor::marginalize: variable not in scope");
  const auto pos = static_cast<std::size_t>(it - scope_.begin());

  std::vector<VariableId> new_scope;
  std::vector<std::size_t> new_cards;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    if (i == pos) continue;
    new_scope.push_back(scope_[i]);
    new_cards.push_back(cards_[i]);
  }
  std::vector<double> out(values_.size() / cards_[pos]);
  kernels::marginalize_keep_into(kernels::view_of(*this), new_scope.data(),
                                 new_scope.size(), out.data());
  return Factor(std::move(new_scope), std::move(new_cards), std::move(out));
}

Factor Factor::reduce(VariableId v, std::size_t state) const {
  return kernels::reduce(kernels::view_of(*this), v, state);
}

Factor Factor::reduce(const Evidence& evidence) const {
  return kernels::reduce(kernels::view_of(*this), evidence);
}

Factor Factor::normalized() const {
  const double sum = total();
  if (!(sum > 0.0))
    throw std::domain_error("Factor::normalized: zero total (impossible evidence)");
  std::vector<double> out = values_;
  for (double& v : out) v /= sum;
  return Factor(scope_, cards_, std::move(out));
}

double Factor::total() const {
  return kernels::total(values_.data(), values_.size());
}

}  // namespace sysuq::bayesnet
