#include "bayesnet/network.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

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
  for (const VariableId u : scope) cards.push_back(net.variable(u).cardinality());
  const std::size_t cells = kernels::checked_table_size(
      cards.data(), cards.size(), "BayesianNetwork: CPT table size overflows size_t");
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
  // Structural checks are hard throws in every build mode: compiled out,
  // a duplicate name would leave by_name_ pointing at the first id.
  if (by_name_.contains(v.name()))
    throw std::invalid_argument("BayesianNetwork: duplicate variable '" + v.name() + "'");
  const VariableId id = nodes_.size();
  by_name_.emplace(v.name(), id);
  nodes_.push_back(Node{std::move(v), std::nullopt, Factor::unit(), {}});
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
    // Hard throws: a self-loop or a duplicate parent would corrupt the
    // DAG and the CPT's scope.
    if (p == child) throw std::invalid_argument("BayesianNetwork::set_cpt: self-parent");
    if (!seen.insert(p).second)
      throw std::invalid_argument("BayesianNetwork::set_cpt: duplicate parent");
  }
  // Build before mutating so a failed set_cpt leaves any previous CPT
  // assignment and the child lists intact (strong exception guarantee).
  Factor cpt = cpt_table(*this, child, parents, rows);
  Node& node = nodes_[child];
  if (node.parents) {
    for (const VariableId p : *node.parents) {
      auto& list = nodes_[p].children;
      list.erase(std::lower_bound(list.begin(), list.end(), child));
    }
  }
  for (const VariableId p : parents) {
    auto& list = nodes_[p].children;
    list.insert(std::upper_bound(list.begin(), list.end(), child), child);
  }
  node.parents = std::move(parents);
  node.cpt = std::move(cpt);
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

const std::vector<VariableId>& BayesianNetwork::children(VariableId id) const {
  check_id(id);
  return nodes_[id].children;
}

prob::Categorical BayesianNetwork::cpt_row(
    VariableId child, const std::vector<std::size_t>& parent_states) const {
  const auto& ps = parents(child);
  if (parent_states.size() != ps.size())
    throw std::invalid_argument("BayesianNetwork: parent state count mismatch");
  Evidence given;
  for (std::size_t i = 0; i < ps.size(); ++i) given.emplace(ps[i], parent_states[i]);
  return prob::Categorical(cpt_factor(child).reduce(given).values());
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
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> indegree(n, 0);
  for (VariableId c = 0; c < n; ++c) {
    if (!nodes_[c].parents)
      throw std::logic_error("BayesianNetwork: CPT missing for '" +
                             nodes_[c].var.name() + "'");
    indegree[c] = nodes_[c].parents->size();
  }
  // `order` is the FIFO queue too: a variable leaves it in the order it
  // became ready.
  std::vector<VariableId> order;
  order.reserve(n);
  for (VariableId v = 0; v < n; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const VariableId c : nodes_[order[i]].children) {
      if (--indegree[c] == 0) order.push_back(c);
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
  for (const VariableId v : z) check_id(v);
  if (x == y) return false;
  std::vector<char> marks(nodes_.size(), 0);
  for (const VariableId v : z) marks[v] = kObserved;
  Arena scratch(1024);
  bayes_ball({&x, 1}, marks, scratch);
  return (marks[y] & kVisited) == 0;
}

void BayesianNetwork::bayes_ball(std::span<const VariableId> sources,
                                 std::span<char> marks, Arena& scratch) const {
  if (marks.size() != nodes_.size())
    throw std::invalid_argument("BayesianNetwork::bayes_ball: one mark per variable");
  // Each variable sends balls to its parents once (kTop) and to its
  // children once (kBottom), so the stack never holds more than every
  // edge twice plus the sources.
  struct Ball {
    VariableId v;
    bool from_child;
  };
  std::size_t edges = 0;
  for (const Node& node : nodes_) edges += node.children.size();
  Ball* const balls = scratch.alloc<Ball>(2 * edges + sources.size());
  std::size_t top = 0;
  for (const VariableId v : sources) {
    check_id(v);
    balls[top++] = {v, true};
  }
  while (top > 0) {
    const auto [v, from_child] = balls[--top];
    char& m = marks[v];
    m |= kVisited;
    const bool observed = (m & kObserved) != 0;
    if (from_child != observed && (m & kTop) == 0) {
      m |= kTop;
      for (const VariableId p : parents(v)) balls[top++] = {p, true};
    }
    if (!observed && (m & kBottom) == 0) {
      m |= kBottom;
      for (const VariableId c : nodes_[v].children) balls[top++] = {c, false};
    }
  }
}

void BayesianNetwork::update_cpt_rows(VariableId child,
                                      std::vector<prob::Categorical> rows) {
  nodes_[child].cpt = cpt_table(*this, child, parents(child), rows);
}

}  // namespace sysuq::bayesnet
