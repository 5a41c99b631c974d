#include "bayesnet/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>

#include "bayesnet/kernels.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

// Interaction graph: each vertex's neighbours as a sorted id vector.
using Adjacency = std::vector<std::vector<VariableId>>;

bool adjacent(const Adjacency& adj, VariableId a, VariableId b) {
  return std::binary_search(adj[a].begin(), adj[a].end(), b);
}

// Fill-in cost of eliminating `v` now: pairs of v's neighbours that are
// not yet adjacent to each other.
std::size_t fill_cost(const Adjacency& adj, VariableId v) {
  const auto& nb = adj[v];
  std::size_t fill = 0;
  for (std::size_t i = 0; i < nb.size(); ++i) {
    for (std::size_t j = i + 1; j < nb.size(); ++j) {
      if (!adjacent(adj, nb[i], nb[j])) ++fill;
    }
  }
  return fill;
}

// Moral graph: each CPT family {v} ∪ parents(v) forms a clique. Evidence
// vertices are deleted (their factors are reduced before elimination);
// the rest of each family stays pairwise connected.
Adjacency moral_graph(const BayesianNetwork& net,
                      const std::vector<char>& is_evidence) {
  const std::size_t n = net.size();
  Adjacency adj(n);
  for (VariableId v = 0; v < n; ++v) {
    std::vector<VariableId> family;
    if (!is_evidence[v]) family.push_back(v);
    for (VariableId p : net.parents(v)) {
      if (!is_evidence[p]) family.push_back(p);
    }
    for (std::size_t i = 0; i < family.size(); ++i) {
      for (std::size_t j = i + 1; j < family.size(); ++j) {
        adj[family[i]].push_back(family[j]);
        adj[family[j]].push_back(family[i]);
      }
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return adj;
}

}  // namespace

EliminationOrdering compute_elimination_order(
    const BayesianNetwork& net, const std::vector<VariableId>& keep,
    const std::vector<VariableId>& evidence_keys) {
  const obs::Span span("bayesnet.ordering.min_fill");
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

  Adjacency adj = moral_graph(net, is_evidence);

  // Every pending vertex scored by its fill cost; the first entry is the
  // pick, ties breaking toward the smallest id. Kept vertices stay in the
  // graph but are never scored.
  std::vector<std::size_t> cost(n, 0);
  std::set<std::pair<std::size_t, VariableId>> scored;
  for (VariableId v = 0; v < n; ++v) {
    if (!is_kept[v] && !is_evidence[v]) {
      cost[v] = fill_cost(adj, v);
      scored.emplace(cost[v], v);
    }
  }
  const auto rescore = [&](VariableId v, std::size_t c) {
    scored.erase({cost[v], v});
    cost[v] = c;
    scored.emplace(c, v);
  };

  EliminationOrdering out;
  out.order.reserve(scored.size());
  std::vector<char> in_clique(n, 0);  // marks the eliminated vertex's neighbours
  while (!scored.empty()) {
    const VariableId best = scored.begin()->second;
    scored.erase(scored.begin());
    const std::vector<VariableId> nbrs = std::move(adj[best]);  // never read again

    out.order.push_back(best);
    out.induced_width = std::max(out.induced_width, nbrs.size());
    std::size_t cells = net.variable(best).cardinality();
    for (VariableId nb : nbrs) {
      const std::size_t card = net.variable(nb).cardinality();
      cells = kernels::mul_overflows(cells, card) ? SIZE_MAX : cells * card;
    }
    out.max_table_cells = std::max(out.max_table_cells, cells);

    // Delete the eliminated vertex, then connect its neighbours into a
    // clique (the fill edges). A fill edge (a, b) lowers by one the cost
    // of every pending common neighbour of a and b outside the clique —
    // the only scores outside the clique that change.
    for (VariableId u : nbrs) {
      in_clique[u] = 1;
      auto& list = adj[u];
      list.erase(std::lower_bound(list.begin(), list.end(), best));
    }
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const VariableId a = nbrs[i], b = nbrs[j];
        auto& la = adj[a];
        auto& lb = adj[b];
        const auto at = std::lower_bound(la.begin(), la.end(), b);
        if (at != la.end() && *at == b) continue;
        for (auto x = la.begin(), y = lb.begin(); x != la.end() && y != lb.end();) {
          if (*x < *y) {
            ++x;
          } else if (*y < *x) {
            ++y;
          } else {
            if (!in_clique[*x] && !is_kept[*x]) rescore(*x, cost[*x] - 1);
            ++x;
            ++y;
          }
        }
        la.insert(at, b);
        lb.insert(std::lower_bound(lb.begin(), lb.end(), a), a);
        ++out.fill_edges;
      }
    }
    // The clique's own neighbourhoods changed: re-score them in full.
    for (VariableId u : nbrs) {
      in_clique[u] = 0;
      if (!is_kept[u]) rescore(u, fill_cost(adj, u));
    }
  }
  return out;
}

}  // namespace sysuq::bayesnet
