#include "bayesnet/network.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>

#include "core/contracts.hpp"

namespace sysuq::bayesnet {

VariableId BayesianNetwork::add_variable(Variable v) {
  SYSUQ_EXPECT(!by_name_.contains(v.name()),
               "BayesianNetwork: duplicate variable '" + v.name() + "'");
  const VariableId id = nodes_.size();
  by_name_.emplace(v.name(), id);
  nodes_.push_back(Node{std::move(v), std::nullopt, {}});
  return id;
}

VariableId BayesianNetwork::add_variable(const std::string& name,
                                         std::vector<std::string> states) {
  return add_variable(Variable(name, std::move(states)));
}

void BayesianNetwork::check_id(VariableId id) const {
  if (id >= nodes_.size())
    throw std::out_of_range("BayesianNetwork: bad variable id");
}

std::size_t BayesianNetwork::parent_config_count(VariableId child) const {
  std::size_t n = 1;
  for (VariableId p : *nodes_[child].parents)
    n *= nodes_[p].var.cardinality();
  return n;
}

void BayesianNetwork::set_cpt(VariableId child, std::vector<VariableId> parents,
                              std::vector<prob::Categorical> rows) {
  check_id(child);
  std::set<VariableId> seen;
  for (VariableId p : parents) {
    check_id(p);
    SYSUQ_EXPECT(p != child, "BayesianNetwork::set_cpt: self-parent");
    SYSUQ_EXPECT(seen.insert(p).second,
                 "BayesianNetwork::set_cpt: duplicate parent");
  }
  // Validate before mutating so a failed set_cpt leaves any previous CPT
  // assignment intact (strong exception guarantee; the old code reset the
  // parent list before throwing).
  std::size_t expect = 1;
  for (VariableId p : parents) expect *= nodes_[p].var.cardinality();
  SYSUQ_EXPECT(rows.size() == expect,
               "BayesianNetwork::set_cpt: expected " + std::to_string(expect) +
                   " rows, got " + std::to_string(rows.size()));
  for (const auto& r : rows) {
    SYSUQ_EXPECT(r.size() == nodes_[child].var.cardinality(),
                 "BayesianNetwork::set_cpt: row size != child cardinality");
  }
  nodes_[child].parents = std::move(parents);
  nodes_[child].rows = std::move(rows);
}

const Variable& BayesianNetwork::variable(VariableId id) const {
  check_id(id);
  return nodes_[id].var;
}

VariableId BayesianNetwork::id_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end())
    throw std::invalid_argument("BayesianNetwork: no variable '" + name + "'");
  return it->second;
}

bool BayesianNetwork::has_variable(const std::string& name) const {
  return by_name_.contains(name);
}

const std::vector<VariableId>& BayesianNetwork::parents(VariableId id) const {
  check_id(id);
  if (!nodes_[id].parents)
    throw std::logic_error("BayesianNetwork: CPT not set for '" +
                           nodes_[id].var.name() + "'");
  return *nodes_[id].parents;
}

std::vector<VariableId> BayesianNetwork::children(VariableId id) const {
  check_id(id);
  std::vector<VariableId> out;
  for (VariableId c = 0; c < nodes_.size(); ++c) {
    if (!nodes_[c].parents) continue;
    const auto& ps = *nodes_[c].parents;
    if (std::find(ps.begin(), ps.end(), id) != ps.end()) out.push_back(c);
  }
  return out;
}

std::size_t BayesianNetwork::row_index(
    VariableId child, const std::vector<std::size_t>& parent_states) const {
  const auto& ps = parents(child);
  if (parent_states.size() != ps.size())
    throw std::invalid_argument("BayesianNetwork: parent state count mismatch");
  std::size_t idx = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const std::size_t card = nodes_[ps[i]].var.cardinality();
    if (parent_states[i] >= card)
      throw std::out_of_range("BayesianNetwork: parent state out of range");
    idx = idx * card + parent_states[i];
  }
  return idx;
}

const prob::Categorical& BayesianNetwork::cpt_row(
    VariableId child, const std::vector<std::size_t>& parent_states) const {
  return nodes_[child].rows[row_index(child, parent_states)];
}

const std::vector<prob::Categorical>& BayesianNetwork::cpt_rows(
    VariableId child) const {
  check_id(child);
  if (!nodes_[child].parents)
    throw std::logic_error("BayesianNetwork: CPT not set for '" +
                           nodes_[child].var.name() + "'");
  return nodes_[child].rows;
}

Factor BayesianNetwork::cpt_factor(VariableId child,
                                   const Evidence& evidence) const {
  const auto& ps = parents(child);
  const auto& rows = nodes_[child].rows;

  // The CPT holds entry (row r, child state s) at rows[r].p(s), where r
  // is the mixed-radix parent index (last parent fastest). A family
  // member moves r by `row_step` per state and s by `state_step`.
  struct Member {
    VariableId id;
    std::size_t card;
    std::size_t row_step;
    std::size_t state_step;
  };
  std::vector<Member> family;
  family.reserve(ps.size() + 1);
  std::size_t row_step = 1;
  for (std::size_t i = ps.size(); i-- > 0;) {
    const std::size_t card = nodes_[ps[i]].var.cardinality();
    family.push_back({ps[i], card, row_step, 0});
    row_step *= card;
  }
  family.push_back({child, nodes_[child].var.cardinality(), 0, 1});
  // Factor scopes are sorted by id, last varying fastest.
  std::sort(family.begin(), family.end(),
            [](const Member& a, const Member& b) { return a.id < b.id; });

  // Observed members fix the first consistent cell; the open ones span
  // the factor.
  std::size_t row = 0, state = 0, total = 1;
  std::vector<Member> open;
  std::vector<VariableId> scope;
  std::vector<std::size_t> cards;
  for (const Member& m : family) {
    const auto it = evidence.find(m.id);
    if (it == evidence.end()) {
      open.push_back(m);
      scope.push_back(m.id);
      cards.push_back(m.card);
      total *= m.card;
      continue;
    }
    if (it->second >= m.card)
      throw std::out_of_range("BayesianNetwork::cpt_factor: evidence state");
    row += it->second * m.row_step;
    state += it->second * m.state_step;
  }

  // Walk the consistent cells in the factor's row-major order, moving
  // (row, state) with a mixed-radix counter over the open members.
  std::vector<double> values(total);
  std::vector<std::size_t> counter(open.size(), 0);
  for (double& value : values) {
    value = rows[row].p(state);
    for (std::size_t k = open.size(); k-- > 0;) {
      row += open[k].row_step;
      state += open[k].state_step;
      if (++counter[k] < open[k].card) break;
      row -= open[k].row_step * open[k].card;
      state -= open[k].state_step * open[k].card;
      counter[k] = 0;
    }
  }
  return Factor(std::move(scope), std::move(cards), std::move(values));
}

void BayesianNetwork::check_evidence(const Evidence& evidence) const {
  for (const auto& [v, state] : evidence) {
    if (v >= nodes_.size())
      throw std::out_of_range("BayesianNetwork: evidence variable id");
    if (state >= nodes_[v].var.cardinality())
      throw std::out_of_range("BayesianNetwork: evidence state index");
  }
}

void BayesianNetwork::validate() const {
  SYSUQ_EXPECT(!nodes_.empty(), "BayesianNetwork::validate: empty network");
  for (const auto& n : nodes_) {
    SYSUQ_EXPECT(n.parents.has_value(),
                 "BayesianNetwork::validate: CPT missing for '" +
                     n.var.name() + "'");
  }
  (void)topological_order();  // throws on cycles
}

std::vector<VariableId> BayesianNetwork::topological_order() const {
  // Children are filed in id order, so each list is ascending.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<VariableId>> children(n);
  for (VariableId c = 0; c < n; ++c) {
    if (!nodes_[c].parents)
      throw std::logic_error("BayesianNetwork: CPT missing for '" +
                             nodes_[c].var.name() + "'");
    indegree[c] = nodes_[c].parents->size();
    for (VariableId p : *nodes_[c].parents) children[p].push_back(c);
  }
  std::queue<VariableId> ready;
  for (VariableId v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push(v);
  }
  std::vector<VariableId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const VariableId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (VariableId c : children[v]) {
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  if (order.size() != n)
    throw std::logic_error("BayesianNetwork: graph contains a cycle");
  return order;
}

std::size_t BayesianNetwork::parameter_count() const {
  std::size_t total = 0;
  for (VariableId v = 0; v < nodes_.size(); ++v) {
    if (!nodes_[v].parents)
      throw std::logic_error("BayesianNetwork: CPT missing");
    total += parent_config_count(v) * (nodes_[v].var.cardinality() - 1);
  }
  return total;
}

bool BayesianNetwork::d_separated(VariableId x, VariableId y,
                                  const std::vector<VariableId>& z) const {
  check_id(x);
  check_id(y);
  if (x == y) return false;
  std::set<VariableId> zset(z.begin(), z.end());

  // Bayes-ball: compute ancestors of Z, then BFS over (node, direction).
  std::set<VariableId> z_ancestors = zset;
  {
    std::queue<VariableId> q;
    for (VariableId v : zset) q.push(v);
    while (!q.empty()) {
      const VariableId v = q.front();
      q.pop();
      for (VariableId p : parents(v)) {
        if (z_ancestors.insert(p).second) q.push(p);
      }
    }
  }

  // direction: true = visiting from a child (upward), false = from parent.
  std::set<std::pair<VariableId, bool>> visited;
  std::queue<std::pair<VariableId, bool>> q;
  q.push({x, true});
  while (!q.empty()) {
    const auto [v, up] = q.front();
    q.pop();
    if (!visited.insert({v, up}).second) continue;
    if (v == y) return false;  // active path reaches y

    if (up && !zset.contains(v)) {
      // Arrived from a child; can continue up to parents and down to children.
      for (VariableId p : parents(v)) q.push({p, true});
      for (VariableId c : children(v)) q.push({c, false});
    } else if (!up) {
      if (!zset.contains(v)) {
        // Arrived from a parent via a chain; continue to children.
        for (VariableId c : children(v)) q.push({c, false});
      }
      if (z_ancestors.contains(v)) {
        // v is (an ancestor of) evidence: collider path may open upward.
        for (VariableId p : parents(v)) q.push({p, true});
      }
    }
  }
  return true;
}

std::vector<std::size_t> BayesianNetwork::sample(prob::Rng& rng) const {
  const auto order = topological_order();
  std::vector<std::size_t> state(nodes_.size(), 0);
  for (VariableId v : order) {
    const auto& ps = *nodes_[v].parents;
    std::vector<std::size_t> pstates(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) pstates[i] = state[ps[i]];
    state[v] = cpt_row(v, pstates).sample(rng);
  }
  return state;
}

void BayesianNetwork::update_cpt_rows(VariableId child,
                                      std::vector<prob::Categorical> rows) {
  check_id(child);
  SYSUQ_EXPECT(nodes_[child].parents.has_value(),
               "BayesianNetwork::update_cpt_rows: CPT not set");
  SYSUQ_EXPECT(rows.size() == nodes_[child].rows.size(),
               "BayesianNetwork::update_cpt_rows: row count");
  for (const auto& r : rows) {
    SYSUQ_EXPECT(r.size() == nodes_[child].var.cardinality(),
                 "BayesianNetwork::update_cpt_rows: row size");
  }
  nodes_[child].rows = std::move(rows);
}

}  // namespace sysuq::bayesnet
