#include "bayesnet/network.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>

#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"

namespace sysuq::bayesnet {

namespace {

// Calls visit(r, first, stride) for each row r of a CPT's rows layout, one
// per configuration of `parents` (as listed, last fastest): child state s
// of row r sits at cell first + s * stride of the table over `scope`.
template <class Visit>
void for_each_row(const BayesianNetwork& net, const std::vector<VariableId>& parents,
                  VariableId child, const std::vector<VariableId>& scope, Visit&& visit) {
  std::vector<VariableId> family = parents;
  family.push_back(child);
  const std::vector<std::size_t> strides = strides_in(net, family, scope);
  std::vector<std::size_t> cards;
  for (const VariableId p : parents) cards.push_back(net.variable(p).cardinality());
  kernels::walk(cards.data(), strides.data(), cards.size(), 0,
                [&](std::size_t r, std::size_t first) { visit(r, first, strides.back()); });
}

// The table of P(child | parents) that `rows` (last parent fastest) hold.
Factor cpt_table(const BayesianNetwork& net, VariableId child,
                 const std::vector<VariableId>& parents,
                 const std::vector<prob::Categorical>& rows) {
  std::vector<VariableId> scope = parents;
  scope.push_back(child);
  std::sort(scope.begin(), scope.end());
  // Hard throws, not contracts: compiled out, a wrapped table size would
  // pass zero rows for an empty table, and a row-count or row-size
  // mismatch would index past `rows` or a row.
  std::vector<std::size_t> cards;
  std::size_t cells = 1;
  for (const VariableId u : scope) {
    cards.push_back(net.variable(u).cardinality());
    if (kernels::mul_overflows(cells, cards.back()))
      throw std::invalid_argument("BayesianNetwork: CPT table size overflows size_t");
    cells *= cards.back();
  }
  const std::size_t k = net.variable(child).cardinality();
  if (rows.size() != cells / k)
    throw std::invalid_argument("BayesianNetwork: expected " + std::to_string(cells / k) +
                                " CPT rows, got " + std::to_string(rows.size()));
  std::vector<double> values(cells);
  for_each_row(net, parents, child, scope, [&](std::size_t r, std::size_t first, std::size_t stride) {
    if (rows[r].size() != k)
      throw std::invalid_argument("BayesianNetwork: CPT row size != child cardinality");
    for (std::size_t s = 0; s < k; ++s) values[first + s * stride] = rows[r].probs()[s];
  });
  return Factor(std::move(scope), std::move(cards), std::move(values));
}

}  // namespace

VariableId BayesianNetwork::add_variable(Variable v) {
  SYSUQ_EXPECT(!by_name_.contains(v.name()),
               "BayesianNetwork: duplicate variable '" + v.name() + "'");
  const VariableId id = nodes_.size();
  by_name_.emplace(v.name(), id);
  nodes_.push_back(Node{std::move(v), std::nullopt, Factor::unit()});
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

void BayesianNetwork::missing_cpt(VariableId id) const {
  check_id(id);
  throw std::logic_error("BayesianNetwork: CPT not set for '" +
                         nodes_[id].var.name() + "'");
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
  // Build before mutating so a failed set_cpt leaves any previous CPT
  // assignment intact (strong exception guarantee).
  Factor cpt = cpt_table(*this, child, parents, rows);
  nodes_[child].parents = std::move(parents);
  nodes_[child].cpt = std::move(cpt);
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
  if (id >= nodes_.size() || !nodes_[id].parents) missing_cpt(id);
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

prob::Categorical BayesianNetwork::cpt_row(
    VariableId child, const std::vector<std::size_t>& parent_states) const {
  const auto& ps = parents(child);
  if (parent_states.size() != ps.size())
    throw std::invalid_argument("BayesianNetwork: parent state count mismatch");
  Evidence given;
  for (std::size_t i = 0; i < ps.size(); ++i) given.emplace(ps[i], parent_states[i]);
  return prob::Categorical(cpt_factor(child, given).values());
}

std::vector<prob::Categorical> BayesianNetwork::cpt_rows(VariableId child) const {
  const Factor& table = cpt_factor(child);
  std::vector<prob::Categorical> rows;
  for_each_row(*this, *nodes_[child].parents, child, table.scope(),
               [&](std::size_t, std::size_t first, std::size_t stride) {
                 std::vector<double> row(nodes_[child].var.cardinality());
                 for (std::size_t s = 0; s < row.size(); ++s) row[s] = table.values()[first + s * stride];
                 rows.emplace_back(std::move(row));
               });
  return rows;
}

Factor BayesianNetwork::cpt_factor(VariableId child,
                                   const Evidence& evidence) const {
  const Factor& table = cpt_factor(child);
  const auto& scope = table.scope();
  const auto& cards = table.cardinalities();
  // Observed members fix the first consistent cell; the open ones span
  // the result, each read at its stride in the table.
  std::vector<VariableId> open;
  std::vector<std::size_t> open_cards, strides;
  std::size_t first = 0, stride = table.size(), cells = 1;
  for (std::size_t i = 0; i < scope.size(); ++i) {
    stride /= cards[i];
    const auto it = evidence.find(scope[i]);
    if (it == evidence.end()) {
      open.push_back(scope[i]);
      open_cards.push_back(cards[i]);
      strides.push_back(stride);
      cells *= cards[i];
    } else if (it->second < cards[i]) {
      first += it->second * stride;
    } else {
      throw std::out_of_range("BayesianNetwork::cpt_factor: evidence state");
    }
  }
  std::vector<double> values(cells);
  kernels::walk(open_cards.data(), strides.data(), open.size(), first,
                [&](std::size_t x, std::size_t j) { values[x] = table.values()[j]; });
  return Factor(std::move(open), std::move(open_cards), std::move(values));
}

std::vector<std::size_t> strides_in(const BayesianNetwork& net,
                                    const std::vector<VariableId>& vars,
                                    const std::vector<VariableId>& table) {
  std::vector<std::size_t> out(vars.size(), 0);
  std::size_t stride = 1;
  for (std::size_t t = table.size(); t-- > 0;) {
    const auto it = std::find(vars.begin(), vars.end(), table[t]);
    if (it != vars.end()) out[static_cast<std::size_t>(it - vars.begin())] = stride;
    stride *= net.variable(table[t]).cardinality();
  }
  return out;
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
    const std::size_t k = nodes_[v].var.cardinality();
    total += nodes_[v].cpt.size() / k * (k - 1);
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

void BayesianNetwork::update_cpt_rows(VariableId child,
                                      std::vector<prob::Categorical> rows) {
  nodes_[child].cpt = cpt_table(*this, child, parents(child), rows);
}

}  // namespace sysuq::bayesnet
