#include "bayesnet/variable.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/contracts.hpp"

namespace sysuq::bayesnet {

Variable::Variable(std::string name, std::vector<std::string> states)
    : name_(std::move(name)), states_(std::move(states)) {
  SYSUQ_EXPECT(!name_.empty(), "Variable: empty name");
  // A hard throw in every build mode: a CPT divides its table size by
  // the cardinality.
  if (states_.size() < 2)
    throw std::invalid_argument("Variable '" + name_ + "': need >= 2 states");
  std::unordered_set<std::string> seen;
  for (const auto& s : states_) {
    SYSUQ_EXPECT(!s.empty(), "Variable '" + name_ + "': empty state label");
    SYSUQ_EXPECT(seen.insert(s).second,
                 "Variable '" + name_ + "': duplicate state '" + s + "'");
  }
}

const std::string& Variable::state_name(std::size_t i) const {
  if (i >= states_.size())
    throw std::out_of_range("Variable '" + name_ + "': state index");
  return states_[i];
}

std::size_t Variable::state_index(const std::string& label) const {
  const auto it = std::find(states_.begin(), states_.end(), label);
  if (it == states_.end())
    throw std::invalid_argument("Variable '" + name_ + "': no state '" + label +
                                "'");
  return static_cast<std::size_t>(std::distance(states_.begin(), it));
}

bool Variable::has_state(const std::string& label) const {
  return std::find(states_.begin(), states_.end(), label) != states_.end();
}

}  // namespace sysuq::bayesnet
