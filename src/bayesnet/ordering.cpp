#include "bayesnet/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "bayesnet/kernels.hpp"

namespace sysuq::bayesnet {

namespace {

// Fill-in cost of eliminating `v` now: pairs of v's neighbours that are
// not yet adjacent to each other.
std::size_t fill_cost(const std::vector<std::set<VariableId>>& adj,
                      VariableId v) {
  std::size_t fill = 0;
  for (auto a = adj[v].begin(); a != adj[v].end(); ++a) {
    auto b = a;
    for (++b; b != adj[v].end(); ++b) {
      if (!adj[*a].contains(*b)) ++fill;
    }
  }
  return fill;
}

// Moral graph: each CPT family {v} ∪ parents(v) forms a clique. Evidence
// vertices are deleted (their factors are reduced before elimination);
// the rest of each family stays pairwise connected.
std::vector<std::set<VariableId>> moral_graph(const BayesianNetwork& net,
                                              const std::vector<char>& is_evidence) {
  const std::size_t n = net.size();
  std::vector<std::set<VariableId>> adj(n);
  for (VariableId v = 0; v < n; ++v) {
    std::vector<VariableId> family;
    if (!is_evidence[v]) family.push_back(v);
    for (VariableId p : net.parents(v)) {
      if (!is_evidence[p]) family.push_back(p);
    }
    for (std::size_t i = 0; i < family.size(); ++i) {
      for (std::size_t j = i + 1; j < family.size(); ++j) {
        adj[family[i]].insert(family[j]);
        adj[family[j]].insert(family[i]);
      }
    }
  }
  return adj;
}

}  // namespace

EliminationOrdering compute_elimination_order(
    const BayesianNetwork& net, const std::vector<VariableId>& keep,
    const std::vector<VariableId>& evidence_keys) {
  net.validate();
  const std::size_t n = net.size();
  std::vector<char> is_evidence(n, 0), is_kept(n, 0);
  for (VariableId v : evidence_keys) {
    if (v >= n) throw std::out_of_range("compute_elimination_order: evidence id");
    is_evidence[v] = 1;
  }
  for (VariableId v : keep) {
    if (v >= n) throw std::out_of_range("compute_elimination_order: keep id");
    is_kept[v] = 1;
  }

  std::vector<std::set<VariableId>> adj = moral_graph(net, is_evidence);

  std::vector<char> pending(n, 0);
  std::size_t remaining = 0;
  for (VariableId v = 0; v < n; ++v) {
    if (!is_kept[v] && !is_evidence[v]) {
      pending[v] = 1;
      ++remaining;
    }
  }

  EliminationOrdering out;
  out.order.reserve(remaining);
  while (remaining > 0) {
    VariableId best = 0;
    std::size_t best_cost = std::numeric_limits<std::size_t>::max();
    for (VariableId v = 0; v < n; ++v) {
      if (!pending[v]) continue;
      const std::size_t cost = fill_cost(adj, v);
      if (cost < best_cost) {  // strict: ties break toward the smallest id
        best_cost = cost;
        best = v;
      }
    }

    out.order.push_back(best);
    out.induced_width = std::max(out.induced_width, adj[best].size());
    std::size_t cells = net.variable(best).cardinality();
    for (VariableId nb : adj[best]) {
      const std::size_t card = net.variable(nb).cardinality();
      cells = kernels::mul_overflows(cells, card) ? SIZE_MAX : cells * card;
    }
    out.max_table_cells = std::max(out.max_table_cells, cells);

    // Connect the eliminated vertex's neighbours into a clique (the fill
    // edges), then delete it — the incremental graph update.
    for (auto a = adj[best].begin(); a != adj[best].end(); ++a) {
      auto b = a;
      for (++b; b != adj[best].end(); ++b) {
        if (adj[*a].insert(*b).second) {
          adj[*b].insert(*a);
          ++out.fill_edges;
        }
      }
    }
    for (VariableId nb : adj[best]) adj[nb].erase(best);
    adj[best].clear();
    pending[best] = 0;
    --remaining;
  }
  return out;
}

}  // namespace sysuq::bayesnet
