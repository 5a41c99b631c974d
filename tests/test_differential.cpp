// Differential tests (label: differential): the junction-tree backend is
// checked against the engine's variable elimination (VE) over hundreds
// of generated network/evidence pairs, loopy BP's certified intervals
// must contain the exact posteriors on the same pairs with its points
// tracking VE==JT inside a topology-banded tolerance, likelihood weighting
// agrees within sampling tolerance, every backend throws the identical
// impossible-evidence message, and the Table I perception figures are
// pinned to hard-coded golden values under both exact backends. A
// pinned treewidth-hostile grid checks that Backend::kAuto escalates
// to BP and keeps answering where the exact plans are infeasible. The
// incremental min-fill ordering and the bucketed replay are pinned to
// in-test copies of the full scans they replaced, on every generated
// pair and on the grid, loopy BP's one-sweep messages to an in-test
// copy of the per-edge update they replaced, and its coalesced blanket
// certificate, bit for bit, to an in-test copy of the odometer
// enumeration it replaced; a run certifying one variable matches the
// full run on that variable bit for bit. On the same pairs, the
// bucketed elimination executor is pinned bit for bit to an in-test copy
// of the live-scan core it replaced. VE's requisite-set pruning is
// checked against the enumeration oracle and an in-test Bayes-ball on
// generated networks with and without exact zeros, and so are junction
// trees whose exact zeros leave dead clique cells (generated fault trees
// among them). A subnormal P(e) must not read as impossible evidence.
//
// The generator is seeded from SYSUQ_DIFFERENTIAL_SEED (decimal) so CI
// can sweep several fixed seeds; unset, it uses a fixed default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "bayesnet/builders.hpp"
#include "bayesnet/engine.hpp"
#include "bayesnet/inference.hpp"
#include "bayesnet/junction_tree.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "sys/decomposition.hpp"
#include "core/tolerance.hpp"
#include "fta/fta_to_bn.hpp"
#include "perception/table1.hpp"
#include "prob/rng.hpp"
#include "tests/legacy_elimination.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

std::uint64_t differential_seed() {
  if (const char* env = std::getenv("SYSUQ_DIFFERENTIAL_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805ULL;
}

enum class Topology { kChain, kTree, kDense };

// Random network with 2-6 states per variable (min_card + [0, card_span)
// when given) and a topology-controlled parent structure. All CPT
// entries are strictly positive unless `zero_prob` > 0 zeroes entries,
// so by default every evidence assignment has P(e) > 0 (impossible
// evidence is exercised by dedicated networks below).
bn::BayesianNetwork random_network(pr::Rng& rng, Topology topo,
                                   std::size_t n, std::size_t min_card = 2,
                                   std::size_t card_span = 5,
                                   double zero_prob = 0.0) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  cards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = min_card + rng.uniform_index(card_span);
    cards.push_back(card);
    std::vector<std::string> states;
    states.reserve(card);
    for (std::size_t s = 0; s < card; ++s)
      states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    switch (topo) {
      case Topology::kChain:
        if (i > 0) parents.push_back(i - 1);
        break;
      case Topology::kTree:
        if (i > 0) parents.push_back(rng.uniform_index(i));
        break;
      case Topology::kDense:
        for (std::size_t j = 0; j < i && parents.size() < 3; ++j) {
          if (rng.bernoulli(0.5)) parents.push_back(j);
        }
        break;
    }
    std::size_t rows = 1;
    for (const auto p : parents) rows *= cards[p];
    std::vector<pr::Categorical> cpt;
    cpt.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(cards[i]);
      for (double& x : w) {
        x = zero_prob > 0.0 && rng.bernoulli(zero_prob) ? 0.0 : rng.uniform() + 0.05;
      }
      if (*std::max_element(w.begin(), w.end()) <= 0.0) w[0] = 1.0;
      cpt.push_back(pr::Categorical::normalized(std::move(w)));
    }
    net.set_cpt(i, std::move(parents), std::move(cpt));
  }
  return net;
}

bn::Evidence random_evidence(pr::Rng& rng, const bn::BayesianNetwork& net,
                             std::size_t count) {
  bn::Evidence ev;
  for (std::size_t k = 0; k < count; ++k) {
    const bn::VariableId v = rng.uniform_index(net.size());
    ev[v] = rng.uniform_index(net.variable(v).cardinality());
  }
  return ev;
}

// Chain a -> b where b = 1 is unreachable, as in the engine tests.
bn::BayesianNetwork unreachable_state_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  return net;
}

constexpr Topology kTopologies[] = {Topology::kChain, Topology::kTree,
                                    Topology::kDense};

// A fault tree compiled to a network: 5-7 basic events under 3-4 AND /
// OR / k-of-n gates of 2-3 children, drawn from the events and the
// earlier gates (so events are shared), and an OR top over every gate no
// other gate consumed. Every gate CPT is a 0/1 table.
bn::BayesianNetwork random_fault_tree(pr::Rng& rng) {
  namespace ft = sysuq::fta;
  ft::FaultTree tree;
  std::vector<ft::NodeId> nodes;
  const std::size_t events = 5 + rng.uniform_index(3);
  for (std::size_t i = 0; i < events; ++i)
    nodes.push_back(tree.add_basic_event("e" + std::to_string(i), 0.05 + 0.35 * rng.uniform()));
  std::set<ft::NodeId> open;  // gates no gate consumed yet
  const std::size_t gates = 3 + rng.uniform_index(2);
  for (std::size_t g = 0; g < gates; ++g) {
    std::vector<ft::NodeId> children;
    const std::size_t width = 2 + rng.uniform_index(2);
    while (children.size() < width) {
      const ft::NodeId c = nodes[rng.uniform_index(nodes.size())];
      if (std::find(children.begin(), children.end(), c) == children.end())
        children.push_back(c);
    }
    for (const ft::NodeId c : children) open.erase(c);
    const std::string name = "g" + std::to_string(g);
    const std::size_t type = rng.uniform_index(3);
    const ft::NodeId id =
        type == 0   ? tree.add_gate(name, ft::GateType::kAnd, children)
        : type == 1 ? tree.add_gate(name, ft::GateType::kOr, children)
                    : tree.add_gate(name, ft::GateType::kKooN, children, width - 1);
    nodes.push_back(id);
    open.insert(id);
  }
  tree.set_top(tree.add_gate("top", ft::GateType::kOr, {open.begin(), open.end()}));
  return sysuq::fta::compile_to_bayesnet(tree).network;
}

// w x h binary grid, parents = left and up neighbors; weakly coupled,
// strictly positive CPTs. Treewidth grows with min(w, h): by 25x25 the
// min-fill plan's largest table is ~2^26 cells, past the engine's
// default feasibility ceiling, so exact inference is off the table.
bn::BayesianNetwork grid_network(std::size_t w, std::size_t h) {
  bn::BayesianNetwork net;
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t c = 0; c < w; ++c)
      net.add_variable("g" + std::to_string(r) + "_" + std::to_string(c),
                       {"0", "1"});
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const bn::VariableId v = r * w + c;
      std::vector<bn::VariableId> parents;
      if (c > 0) parents.push_back(v - 1);  // left
      if (r > 0) parents.push_back(v - w);  // up
      std::vector<pr::Categorical> cpt;
      const std::size_t rows = std::size_t{1} << parents.size();
      for (std::size_t row = 0; row < rows; ++row) {
        double p1 = 0.35;
        for (std::size_t k = 0; k < parents.size(); ++k)
          if ((row >> k) & 1u) p1 += 0.1;
        cpt.push_back(pr::Categorical({1.0 - p1, p1}));
      }
      net.set_cpt(v, std::move(parents), std::move(cpt));
    }
  }
  return net;
}

// Reference min-fill: the library's former scan, which re-scores every
// pending vertex in every round over std::set adjacencies. The
// incremental ordering must reproduce it field for field.
bn::EliminationOrdering reference_min_fill(const bn::BayesianNetwork& net,
                                           const std::vector<bn::VariableId>& keep,
                                           const std::vector<bn::VariableId>& evidence_keys) {
  const std::size_t n = net.size();
  std::vector<char> is_evidence(n, 0), is_kept(n, 0);
  for (const bn::VariableId v : evidence_keys) is_evidence[v] = 1;
  for (const bn::VariableId v : keep) is_kept[v] = 1;
  std::vector<std::set<bn::VariableId>> adj(n);
  for (bn::VariableId v = 0; v < n; ++v) {
    std::vector<bn::VariableId> family;
    if (!is_evidence[v]) family.push_back(v);
    for (const bn::VariableId p : net.parents(v))
      if (!is_evidence[p]) family.push_back(p);
    for (std::size_t i = 0; i < family.size(); ++i)
      for (std::size_t j = i + 1; j < family.size(); ++j) {
        adj[family[i]].insert(family[j]);
        adj[family[j]].insert(family[i]);
      }
  }
  const auto fill_cost = [&](bn::VariableId v) {
    std::size_t fill = 0;
    for (auto a = adj[v].begin(); a != adj[v].end(); ++a)
      for (auto b = std::next(a); b != adj[v].end(); ++b)
        if (!adj[*a].contains(*b)) ++fill;
    return fill;
  };
  std::vector<char> pending(n, 0);
  std::size_t remaining = 0;
  for (bn::VariableId v = 0; v < n; ++v) {
    if (!is_kept[v] && !is_evidence[v]) {
      pending[v] = 1;
      ++remaining;
    }
  }
  bn::EliminationOrdering out;
  while (remaining > 0) {
    bn::VariableId best = 0;
    std::size_t best_cost = std::numeric_limits<std::size_t>::max();
    for (bn::VariableId v = 0; v < n; ++v) {
      if (!pending[v]) continue;
      const std::size_t cost = fill_cost(v);
      if (cost < best_cost) {
        best_cost = cost;
        best = v;
      }
    }
    out.order.push_back(best);
    out.induced_width = std::max(out.induced_width, adj[best].size());
    std::size_t cells = net.variable(best).cardinality();
    for (const bn::VariableId nb : adj[best]) {
      const std::size_t card = net.variable(nb).cardinality();
      cells = bn::kernels::mul_overflows(cells, card) ? SIZE_MAX : cells * card;
    }
    out.max_table_cells = std::max(out.max_table_cells, cells);
    for (auto a = adj[best].begin(); a != adj[best].end(); ++a)
      for (auto b = std::next(a); b != adj[best].end(); ++b)
        if (adj[*a].insert(*b).second) {
          adj[*b].insert(*a);
          ++out.fill_edges;
        }
    for (const bn::VariableId nb : adj[best]) adj[nb].erase(best);
    adj[best].clear();
    pending[best] = 0;
    --remaining;
  }
  return out;
}

// Reference replay: the library's former simulate_elimination, which
// scans every live scope at every step (exact on orders that name each
// unobserved variable once, as every engine order does).
std::vector<bn::EliminationStepProfile> reference_replay(
    const bn::BayesianNetwork& net, const bn::Evidence& evidence,
    const std::vector<bn::VariableId>& order,
    const std::vector<bn::VariableId>& keep) {
  std::vector<std::vector<bn::VariableId>> scopes;
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    std::vector<bn::VariableId> scope = net.parents(v);
    scope.push_back(v);
    std::sort(scope.begin(), scope.end());
    std::erase_if(scope, [&](bn::VariableId s) { return evidence.contains(s); });
    if (!scope.empty()) scopes.push_back(std::move(scope));
  }
  std::vector<bn::EliminationStepProfile> steps;
  for (const bn::VariableId v : order) {
    if (std::find(keep.begin(), keep.end(), v) != keep.end()) continue;
    std::vector<bn::VariableId> product;
    std::vector<std::vector<bn::VariableId>> survivors;
    for (auto& scope : scopes) {
      if (std::find(scope.begin(), scope.end(), v) == scope.end()) {
        survivors.push_back(std::move(scope));
        continue;
      }
      std::vector<bn::VariableId> merged;
      std::set_union(product.begin(), product.end(), scope.begin(), scope.end(),
                     std::back_inserter(merged));
      product = std::move(merged);
    }
    if (product.empty()) continue;
    std::size_t cells = 1;
    for (const bn::VariableId s : product) cells *= net.variable(s).cardinality();
    steps.push_back({v, net.variable(v).name(), product, cells});
    std::erase(product, v);
    if (!product.empty()) survivors.push_back(std::move(product));
    scopes = std::move(survivors);
  }
  return steps;
}

// Reference Bayes-ball, as Shachter (1998) states it: a FIFO schedule of
// visits, each from a child or from a parent, over parent and child
// lists, with top and bottom marks. Returns the nodes marked on top: the
// CPTs P(keep | ev) needs.
std::vector<char> reference_bayes_ball(const bn::BayesianNetwork& net,
                                       const std::vector<bn::VariableId>& keep,
                                       const bn::Evidence& ev) {
  std::vector<char> top(net.size(), 0), bottom(net.size(), 0);
  std::queue<std::pair<bn::VariableId, bool>> schedule;  // (node, from a child)
  for (const bn::VariableId j : keep) schedule.emplace(j, true);
  while (!schedule.empty()) {
    const auto [j, from_child] = schedule.front();
    schedule.pop();
    const auto visit_parents = [&] {
      if (std::exchange(top[j], 1) != 0) return;
      for (const bn::VariableId p : net.parents(j)) schedule.emplace(p, true);
    };
    const auto visit_children = [&] {
      if (std::exchange(bottom[j], 1) != 0) return;
      for (const bn::VariableId c : net.children(j)) schedule.emplace(c, false);
    };
    if (from_child && !ev.contains(j)) {
      visit_parents();
      visit_children();
    } else if (!from_child) {
      if (ev.contains(j)) visit_parents();
      else visit_children();
    }
  }
  return top;
}

// The ancestral set of `keep` and the observed nodes.
std::vector<char> reference_ancestral(const bn::BayesianNetwork& net,
                                      const std::vector<bn::VariableId>& keep,
                                      const bn::Evidence& ev) {
  std::vector<char> in(net.size(), 0);
  std::vector<bn::VariableId> stack = keep;
  for (const auto& [v, _] : ev) stack.push_back(v);
  while (!stack.empty()) {
    const bn::VariableId v = stack.back();
    stack.pop_back();
    if (std::exchange(in[v], 1) != 0) continue;
    for (const bn::VariableId p : net.parents(v)) stack.push_back(p);
  }
  return in;
}

// The CPTs a VE run over `keep` multiplies: Bayes-ball's, unless an
// observed node left out of them has its state impossible under some
// parent row; then the ancestral set.
std::vector<char> reference_requisite(const bn::BayesianNetwork& net,
                                      const std::vector<bn::VariableId>& keep,
                                      const bn::Evidence& ev) {
  const std::vector<char> top = reference_bayes_ball(net, keep, ev);
  for (const auto& [v, state] : ev) {
    if (top[v]) continue;
    for (const auto& row : net.cpt_rows(v))
      if (!(row.p(state) > 0.0)) return reference_ancestral(net, keep, ev);
  }
  return top;
}

// The variables explain() must list for P(q | ev) on `plan`: its order
// filtered to the reference requisite set, minus q.
std::vector<bn::VariableId> reference_steps(const bn::BayesianNetwork& net,
                                            const std::vector<bn::VariableId>& plan,
                                            bn::VariableId q, const bn::Evidence& ev) {
  const std::vector<char> in = reference_requisite(net, {q}, ev);
  std::vector<bn::VariableId> steps;
  for (const bn::VariableId v : plan)
    if (in[v] && v != q && !ev.contains(v)) steps.push_back(v);
  return steps;
}

::testing::AssertionResult same_ordering(const bn::EliminationOrdering& got,
                                         const bn::EliminationOrdering& want) {
  if (got.order != want.order) return ::testing::AssertionFailure() << "order differs";
  if (got.induced_width != want.induced_width)
    return ::testing::AssertionFailure()
           << "induced_width " << got.induced_width << " vs " << want.induced_width;
  if (got.fill_edges != want.fill_edges)
    return ::testing::AssertionFailure()
           << "fill_edges " << got.fill_edges << " vs " << want.fill_edges;
  if (got.max_table_cells != want.max_table_cells)
    return ::testing::AssertionFailure() << "max_table_cells " << got.max_table_cells
                                         << " vs " << want.max_table_cells;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_steps(const std::vector<bn::EliminationStepProfile>& got,
                                      const std::vector<bn::EliminationStepProfile>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " steps vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].variable != want[i].variable || got[i].scope != want[i].scope ||
        got[i].table_cells != want[i].table_cells)
      return ::testing::AssertionFailure() << "step " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

// Reference loopy BP: the library's former flooding loop, whose per-edge
// update multiplies the factor by its other d-1 incoming messages one
// Factor::product at a time and then sums the rest out with
// Factor::marginalize — O(d^2 |psi|) per factor per iteration. The
// one-sweep update must reproduce its iteration count, converged flag,
// impossible-evidence verdict and points.
struct ReferenceBp {
  std::size_t iterations = 0;
  bool converged = false;
  bool impossible = false;
  std::vector<std::vector<double>> points;  // per variable; empty if observed
};

ReferenceBp reference_loopy_bp(const bn::BayesianNetwork& net, const bn::Evidence& ev,
                               const bn::LoopyBP::Options& options) {
  ReferenceBp out;
  std::vector<bn::Factor> factors;
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    bn::Factor f = net.cpt_factor(v);
    for (const auto& [u, state] : ev)
      if (f.contains(u)) f = f.reduce(u, state);
    if (!f.scope().empty()) {
      factors.push_back(std::move(f));
    } else if (f.values().front() <= 0.0) {
      out.impossible = true;
      return out;
    }
  }
  struct Edge {
    std::size_t factor;
    bn::VariableId var;
    std::vector<double> to_var, to_factor;
  };
  std::vector<Edge> edges;
  std::vector<std::vector<std::size_t>> edges_of_var(net.size());
  std::vector<std::size_t> first_edge;
  for (std::size_t fi = 0; fi < factors.size(); ++fi) {
    first_edge.push_back(edges.size());
    for (const bn::VariableId v : factors[fi].scope()) {
      const std::size_t card = net.variable(v).cardinality();
      const std::vector<double> uniform(card, 1.0 / static_cast<double>(card));
      edges_of_var[v].push_back(edges.size());
      edges.push_back({fi, v, uniform, uniform});
    }
  }
  const auto normalize = [](std::vector<double>& m) {
    const double total = bn::kernels::total(m.data(), m.size());
    if (total > 0.0) bn::kernels::scale(m.data(), m.size(), 1.0 / total);
    return total > 0.0;
  };
  const auto update = [&](std::size_t eid) {
    const Edge& e = edges[eid];
    bn::Factor cur = factors[e.factor];
    const auto& scope = factors[e.factor].scope();
    for (std::size_t pos = 0; pos < scope.size(); ++pos) {
      const Edge& in = edges[first_edge[e.factor] + pos];
      if (in.var == e.var) continue;
      cur = cur.product(bn::Factor({in.var}, {in.to_factor.size()}, in.to_factor));
    }
    for (const bn::VariableId u : scope)
      if (u != e.var) cur = cur.marginalize(u);
    return cur.values();
  };

  std::vector<std::vector<double>> staged(edges.size());
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    out.iterations = iter;
    double residual = 0.0;
    for (std::size_t eid = 0; eid < edges.size(); ++eid) {
      staged[eid] = update(eid);
      if (!normalize(staged[eid])) {
        out.impossible = true;
        return out;
      }
      for (std::size_t i = 0; i < staged[eid].size(); ++i)
        residual = std::max(residual, std::abs(staged[eid][i] - edges[eid].to_var[i]));
    }
    for (std::size_t eid = 0; eid < edges.size(); ++eid) {
      auto& m = edges[eid].to_var;
      if (!(options.damping > 0.0)) {
        m = staged[eid];
        continue;
      }
      for (std::size_t i = 0; i < m.size(); ++i)
        m[i] = (1.0 - options.damping) * staged[eid][i] + options.damping * m[i];
      normalize(m);
    }
    for (std::size_t eid = 0; eid < edges.size(); ++eid) {
      auto& m = edges[eid].to_factor;
      std::fill(m.begin(), m.end(), 1.0);
      for (const std::size_t other : edges_of_var[edges[eid].var]) {
        if (other == eid) continue;
        for (std::size_t i = 0; i < m.size(); ++i) m[i] *= edges[other].to_var[i];
      }
      if (!normalize(m)) {
        out.impossible = true;
        return out;
      }
    }
    if (residual < options.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.points.resize(net.size());
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    if (ev.contains(v)) continue;
    std::vector<double> belief(net.variable(v).cardinality(), 1.0);
    for (const std::size_t eid : edges_of_var[v])
      for (std::size_t i = 0; i < belief.size(); ++i) belief[i] *= edges[eid].to_var[i];
    if (!normalize(belief)) {
      out.impossible = true;
      return out;
    }
    out.points[v] = std::move(belief);
  }
  return out;
}

// The run against the reference above: the same iterations, converged
// flag and verdict, and points within tolerance::kTiny (1e-12).
::testing::AssertionResult matches_reference_bp(const bn::LoopyBP& bp,
                                                const bn::BayesianNetwork& net,
                                                const bn::Evidence& ev,
                                                const bn::LoopyBP::Options& options) {
  const ReferenceBp want = reference_loopy_bp(net, ev, options);
  if (bp.iterations() != want.iterations)
    return ::testing::AssertionFailure()
           << bp.iterations() << " iterations vs " << want.iterations;
  if (bp.converged() != want.converged)
    return ::testing::AssertionFailure() << "converged flag differs";
  if (want.impossible) {
    try {
      (void)bp.all_marginals();
    } catch (const std::domain_error&) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "the reference finds the evidence impossible";
  }
  const auto& got = bp.all_marginals();
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    for (std::size_t s = 0; s < want.points[v].size(); ++s) {
      if (!(std::abs(got[v].point.p(s) - want.points[v][s]) <= tol::kTiny))
        return ::testing::AssertionFailure()
               << "var " << v << " state " << s << ": " << got[v].point.p(s)
               << " vs " << want.points[v][s];
    }
  }
  return ::testing::AssertionSuccess();
}

// Reference blanket box: the library's former exact certificate for
// variable v. It enumerates every blanket configuration with a
// mixed-radix odometer (last blanket variable fastest) that moves one
// stride offset per touching factor, over the evidence-reduced CPTs that
// hold v in factor-index order, and envelopes P(v | B = b, e). Past
// `max_configs` configurations the library relaxes instead, and
// `enumerated` stays false.
struct ReferenceBox {
  bool enumerated = false;
  bool feasible = false;
  std::vector<double> lo, hi;
};

ReferenceBox reference_blanket_box(const bn::BayesianNetwork& net, const bn::Evidence& ev,
                                   bn::VariableId v, std::size_t max_configs) {
  ReferenceBox out;
  std::vector<bn::Factor> touching;
  for (bn::VariableId u = 0; u < net.size(); ++u) {
    bn::Factor f = net.cpt_factor(u, ev);
    if (f.contains(v)) touching.push_back(std::move(f));
  }
  std::vector<bn::VariableId> blanket;
  for (const auto& f : touching)
    for (const bn::VariableId u : f.scope())
      if (u != v) blanket.push_back(u);
  std::sort(blanket.begin(), blanket.end());
  blanket.erase(std::unique(blanket.begin(), blanket.end()), blanket.end());
  std::size_t configs = 1;
  for (const bn::VariableId u : blanket) {
    const std::size_t c = net.variable(u).cardinality();
    if (bn::kernels::mul_overflows(configs, c) || configs * c > max_configs) return out;
    configs *= c;
  }
  out.enumerated = true;

  const std::size_t card = net.variable(v).cardinality();
  const std::size_t nt = touching.size(), nb = blanket.size();
  std::vector<std::size_t> step(nb * nt, 0), vstride(nt, 0), offset(nt, 0), states(nb, 0);
  for (std::size_t t = 0; t < nt; ++t) {
    const auto& f = touching[t];
    std::size_t stride = 1;
    for (std::size_t pos = f.scope().size(); pos-- > 0;) {
      const bn::VariableId u = f.scope()[pos];
      if (u == v) {
        vstride[t] = stride;
      } else {
        const auto k = static_cast<std::size_t>(
            std::lower_bound(blanket.begin(), blanket.end(), u) - blanket.begin());
        step[k * nt + t] = stride;
      }
      stride *= f.cardinalities()[pos];
    }
  }
  out.lo.assign(card, 1.0);
  out.hi.assign(card, 0.0);
  std::vector<double> w(card);
  for (std::size_t c = 0; c < configs; ++c) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < card; ++i) {
      double prod = 1.0;
      for (std::size_t t = 0; t < nt; ++t)
        prod *= touching[t].values()[offset[t] + i * vstride[t]];
      w[i] = prod;
      wsum += prod;
    }
    if (wsum > 0.0) {
      out.feasible = true;
      for (std::size_t i = 0; i < card; ++i) {
        out.lo[i] = std::min(out.lo[i], w[i] / wsum);
        out.hi[i] = std::max(out.hi[i], w[i] / wsum);
      }
    }
    for (std::size_t k = nb; k-- > 0;) {
      const std::size_t ck = net.variable(blanket[k]).cardinality();
      for (std::size_t t = 0; t < nt; ++t) offset[t] += step[k * nt + t];
      if (++states[k] < ck) break;
      for (std::size_t t = 0; t < nt; ++t) offset[t] -= step[k * nt + t] * ck;
      states[k] = 0;
    }
  }
  return out;
}

// A run on a factor graph with cycles against the reference box. There
// the contraction box is not applied, so each unobserved variable's
// interval is the blanket box hulled with the point and clamped to
// [0, 1]: bit for bit where the reference enumerates, and containing the
// exact posterior where the library relaxes. `enumerated` counts the
// variables compared bit for bit. A run whose evidence is impossible is
// skipped (the library throws; nothing to compare).
::testing::AssertionResult matches_reference_box(const bn::LoopyBP& bp,
                                                 const bn::BayesianNetwork& net,
                                                 const bn::Evidence& ev,
                                                 std::size_t max_configs,
                                                 std::size_t& enumerated) {
  if (bp.acyclic()) return ::testing::AssertionFailure() << "the factor graph is acyclic";
  std::vector<bn::BoundedPosterior> got;
  try {
    got = bp.all_marginals();
  } catch (const std::domain_error&) {
    return ::testing::AssertionSuccess();
  }
  const bn::InferenceEngine ve(net, kExact);
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    if (ev.contains(v)) continue;
    const ReferenceBox box = reference_blanket_box(net, ev, v, max_configs);
    if (!box.enumerated) {
      if (!got[v].contains(ve.query(v, ev).probs()))
        return ::testing::AssertionFailure() << "var " << v << ": relaxed box misses the truth";
      continue;
    }
    if (!box.feasible) return ::testing::AssertionFailure() << "var " << v << ": no feasible configuration";
    ++enumerated;
    for (std::size_t i = 0; i < box.lo.size(); ++i) {
      const double p = got[v].point.p(i);
      const double lo = std::clamp(std::min(box.lo[i], p), 0.0, 1.0);
      const double hi = std::clamp(std::max(box.hi[i], p), 0.0, 1.0);
      if (std::memcmp(&lo, &got[v].lo[i], sizeof lo) != 0 ||
          std::memcmp(&hi, &got[v].hi[i], sizeof hi) != 0)
        return ::testing::AssertionFailure()
               << "var " << v << " state " << i << ": [" << got[v].lo[i] << ", " << got[v].hi[i]
               << "] vs [" << lo << ", " << hi << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

// A run built with certify_only = v against the full run on the same
// inputs: the same messages and impossible-evidence verdict; v's point
// and interval bit for bit; every other unobserved variable uncertified,
// at [0, 1] around the same point. `impossible` counts the throws.
::testing::AssertionResult matches_full_run(const bn::LoopyBP& full, const bn::LoopyBP& one,
                                            bn::VariableId v, const bn::Evidence& ev,
                                            std::size_t& impossible) {
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  if (one.iterations() != full.iterations() || one.converged() != full.converged())
    return ::testing::AssertionFailure() << "the messages differ";
  std::string full_throw, one_throw;
  try {
    (void)full.all_marginals();
  } catch (const std::domain_error& e) {
    full_throw = e.what();
  }
  try {
    (void)one.query(v);
  } catch (const std::domain_error& e) {
    one_throw = e.what();
  }
  if (full_throw != one_throw)
    return ::testing::AssertionFailure() << "verdicts differ: '" << full_throw << "' vs '"
                                         << one_throw << "'";
  if (!full_throw.empty()) {
    ++impossible;
    return ::testing::AssertionSuccess();
  }
  const auto& want = full.all_marginals();
  const auto& got = one.all_marginals();
  for (bn::VariableId u = 0; u < want.size(); ++u) {
    const bool certified = u == v || ev.contains(u);
    if (one.certified(u) != certified)
      return ::testing::AssertionFailure() << "var " << u << ": certified() is " << !certified;
    for (std::size_t s = 0; s < want[u].lo.size(); ++s) {
      const double lo = certified ? want[u].lo[s] : 0.0;
      const double hi = certified ? want[u].hi[s] : 1.0;
      if (!same(got[u].point.p(s), want[u].point.p(s)) || !same(got[u].lo[s], lo) ||
          !same(got[u].hi[s], hi))
        return ::testing::AssertionFailure()
               << "var " << u << " state " << s << ": " << got[u].point.p(s) << " ["
               << got[u].lo[s] << ", " << got[u].hi[s] << "] vs " << want[u].point.p(s) << " ["
               << lo << ", " << hi << "]";
    }
  }
  if (!same(one.max_bound_width(), got[v].width()))
    return ::testing::AssertionFailure() << "max_bound_width covers more than var " << v;
  return ::testing::AssertionSuccess();
}

// Two noisy-OR children sharing parents 0 and 1 of `parents` binary
// causes (each further cause joins each child with probability 1/2),
// plus a root r whose only child o is always observed, so r's touching
// factors are both unary. A zero leak makes "child on" impossible with
// every cause off: configurations of zero weight.
bn::BayesianNetwork noisy_or_pair(pr::Rng& rng, std::size_t parents, double leak) {
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < parents; ++i) {
    const auto id = net.add_variable("p" + std::to_string(i), {"off", "on"});
    const double p = 0.05 + 0.5 * rng.uniform();
    net.set_cpt(id, {}, {pr::Categorical({1.0 - p, p})});
  }
  for (int k = 0; k < 2; ++k) {
    std::vector<bn::VariableId> causes{0, 1};
    for (bn::VariableId i = 2; i < parents; ++i)
      if (rng.bernoulli(0.5)) causes.push_back(i);
    std::vector<double> links;
    for (std::size_t i = 0; i < causes.size(); ++i) links.push_back(0.2 + 0.7 * rng.uniform());
    const auto c = net.add_variable("c" + std::to_string(k), {"false", "true"});
    net.set_cpt(c, std::move(causes), bn::noisy_or_cpt(links, leak));
  }
  const auto r = net.add_variable("r", {"0", "1"});
  const auto o = net.add_variable("o", {"0", "1"});
  net.set_cpt(r, {}, {pr::Categorical({0.25, 0.75})});
  net.set_cpt(o, {r}, {pr::Categorical({0.9, 0.1}), pr::Categorical({0.2, 0.8})});
  return net;
}

}  // namespace

// ---- VE vs JT over generated network/evidence pairs ----

TEST(Differential, JunctionTreeMatchesVariableElimination) {
  pr::Rng rng(differential_seed());
  std::size_t pairs = 0;
  for (const Topology topo : kTopologies) {
    const std::size_t nets = 23;
    for (std::size_t t = 0; t < nets; ++t) {
      const std::size_t n = topo == Topology::kDense
                                ? 5 + rng.uniform_index(3)   // 5..7
                                : 6 + rng.uniform_index(5);  // 6..10
      const auto net = random_network(rng, topo, n);
      const bn::InferenceEngine ve(net, kExact);
      // The engine's form of the tree: compiled once per network from the
      // network-wide plan, which spans every variable, with each pair's
      // evidence entered at calibration.
      const bn::JunctionTreeStructure compiled(net,
                                               bn::compute_elimination_order(net, {}, {}));
      // Evidence cases: none, one observed variable, two observed.
      for (std::size_t ec = 0; ec < 3; ++ec) {
        const auto ev = random_evidence(rng, net, ec);
        const bn::JunctionTree jt(net, ev);
        const bn::JunctionTree calibrated(compiled, ev);
        ++pairs;
        ASSERT_NEAR(calibrated.evidence_probability(), ve.evidence_probability(ev),
                    sysuq::tolerance::kProbSum)
            << "topo " << static_cast<int>(topo) << " net " << t;
        ASSERT_NEAR(calibrated.log_evidence_probability(),
                    std::log(ve.evidence_probability(ev)), sysuq::tolerance::kProbSum)
            << "topo " << static_cast<int>(topo) << " net " << t;
        ASSERT_NEAR(jt.evidence_probability(), ve.evidence_probability(ev),
                    sysuq::tolerance::kProbSum)
            << "topo " << static_cast<int>(topo) << " net " << t;
        // The kAuto guard's figure is exactly the largest table of the
        // replayed plan and of the tree.
        const auto ordering =
            bn::compute_elimination_order(net, {}, bn::evidence_keys(ev));
        std::size_t replay_cells = 0, tree_cells = 0;
        const auto steps = bn::simulate_elimination(net, ev, ordering.order, {});
        for (const auto& step : steps)
          replay_cells = std::max(replay_cells, step.table_cells);
        // The tree's cliques are the inclusion-maximal step scopes, in
        // step order (a later scope can only lie inside an earlier one).
        std::vector<std::vector<bn::VariableId>> maximal;
        for (std::size_t i = 0; i < steps.size(); ++i) {
          const auto& s = steps[i].scope;
          if (std::none_of(steps.begin(), steps.begin() + i, [&](const auto& e) {
                return std::includes(e.scope.begin(), e.scope.end(), s.begin(),
                                     s.end());
              }))
            maximal.push_back(s);
        }
        ASSERT_EQ(jt.cliques(), maximal)
            << "topo " << static_cast<int>(topo) << " net " << t;
        for (const auto& clique : jt.cliques()) {
          std::size_t cells = 1;
          for (const bn::VariableId v : clique) cells *= net.variable(v).cardinality();
          tree_cells = std::max(tree_cells, cells);
        }
        ASSERT_EQ(ordering.max_table_cells, replay_cells)
            << "topo " << static_cast<int>(topo) << " net " << t;
        // The incremental ordering and the bucketed replay reproduce the
        // former full scans, with no kept variable and with one kept.
        bn::VariableId q = (t + ec) % net.size();
        while (ev.contains(q)) q = (q + 1) % net.size();
        const auto keys = bn::evidence_keys(ev);
        ASSERT_TRUE(same_ordering(ordering, reference_min_fill(net, {}, keys)))
            << "topo " << static_cast<int>(topo) << " net " << t;
        ASSERT_TRUE(same_ordering(bn::compute_elimination_order(net, {q}, keys),
                                  reference_min_fill(net, {q}, keys)))
            << "topo " << static_cast<int>(topo) << " net " << t << " keep " << q;
        ASSERT_TRUE(same_steps(steps, reference_replay(net, ev, ordering.order, {})))
            << "topo " << static_cast<int>(topo) << " net " << t;
        ASSERT_TRUE(same_steps(bn::simulate_elimination(net, ev, ordering.order, {q}),
                               reference_replay(net, ev, ordering.order, {q})))
            << "topo " << static_cast<int>(topo) << " net " << t << " keep " << q;
        ASSERT_EQ(ordering.max_table_cells, tree_cells)
            << "topo " << static_cast<int>(topo) << " net " << t;
        const auto& marginals = jt.all_marginals();
        const auto& calibrated_marginals = calibrated.all_marginals();
        ASSERT_EQ(marginals.size(), net.size());
        ASSERT_EQ(calibrated_marginals.size(), net.size());
        for (bn::VariableId q = 0; q < net.size(); ++q) {
          if (ev.contains(q)) {
            // Observed variables hold their deltas.
            EXPECT_EQ(marginals[q].p(ev.at(q)), 1.0);
            EXPECT_EQ(calibrated_marginals[q].p(ev.at(q)), 1.0);
            continue;
          }
          const auto exact = ve.query(q, ev);
          ASSERT_EQ(marginals[q].size(), exact.size());
          for (std::size_t s = 0; s < exact.size(); ++s) {
            ASSERT_NEAR(marginals[q].p(s), exact.p(s),
                        sysuq::tolerance::kProbSum)
                << "topo " << static_cast<int>(topo) << " net " << t
                << " var " << q << " state " << s;
            ASSERT_NEAR(calibrated_marginals[q].p(s), exact.p(s),
                        sysuq::tolerance::kProbSum)
                << "compiled: topo " << static_cast<int>(topo) << " net " << t
                << " var " << q << " state " << s;
          }
        }
      }
    }
  }
  // The acceptance bar: at least 200 generated network/evidence pairs.
  EXPECT_GE(pairs, 200u);
}

// ---- bucket elimination vs the live scan it replaced ----

TEST(Differential, BucketEliminationMatchesLegacyScanOnGeneratedPairs) {
  // The same 207 pairs as the VE-vs-JT sweep (same seed, same generator
  // calls). Each pair's evidence-reduced CPTs are eliminated along the
  // signature's min-fill order, with nothing kept and with one query
  // variable kept, by kernels::eliminate_scaled and by the in-test copy
  // of the live-scan core (legacy_elimination.hpp): bit for bit.
  pr::Rng rng(differential_seed());
  std::size_t pairs = 0;
  bn::Arena arena;
  for (const Topology topo : kTopologies) {
    const std::size_t nets = 23;
    for (std::size_t t = 0; t < nets; ++t) {
      const std::size_t n = topo == Topology::kDense
                                ? 5 + rng.uniform_index(3)   // 5..7
                                : 6 + rng.uniform_index(5);  // 6..10
      const auto net = random_network(rng, topo, n);
      for (std::size_t ec = 0; ec < 3; ++ec) {
        const auto ev = random_evidence(rng, net, ec);
        ++pairs;
        std::vector<bn::Factor> cpts;
        for (bn::VariableId v = 0; v < net.size(); ++v)
          cpts.push_back(net.cpt_factor(v, ev));
        std::vector<bn::kernels::View> views;
        for (const bn::Factor& f : cpts) views.push_back(bn::kernels::view_of(f));
        const auto full =
            bn::compute_elimination_order(net, {}, bn::evidence_keys(ev)).order;
        bn::VariableId q = (t + ec) % net.size();
        while (ev.contains(q)) q = (q + 1) % net.size();
        std::vector<bn::VariableId> kept_q;
        for (const bn::VariableId v : full)
          if (v != q) kept_q.push_back(v);
        for (const auto& order : {full, kept_q}) {
          arena.reset();
          const auto want = legacy::eliminate_scaled(views, order, arena);
          const auto got = bn::kernels::eliminate_scaled(views, order, arena);
          ASSERT_TRUE(legacy::bit_identical(got, want))
              << "topo " << static_cast<int>(topo) << " net " << t
              << " keep " << (order.size() == full.size() ? "{}" : "{q}");
        }
      }
    }
  }
  EXPECT_EQ(pairs, 207u);
}

// ---- loopy BP vs VE==JT: certified containment + tolerance bands ----

TEST(Differential, LoopyBpCertifiedAndBandedAgainstExactBackends) {
  // Three-way harness over the same generated network/evidence pairs as
  // the VE-vs-JT sweep (same seed, same generator calls => the same 207
  // pairs). For every unobserved variable:
  //  * the certified interval must contain the exact posterior (both
  //    the VE and JT renditions) — this is the hard guarantee, asserted
  //    whether or not BP converged;
  //  * the BP point must lie inside its own interval;
  //  * a converged point must track VE==JT within a topology-banded
  //    tolerance: exactness (kProbSum) on the acyclic chain/tree
  //    topologies where BP is exact, a loose band on the loopy dense
  //    ones where it is an approximation.
  pr::Rng rng(differential_seed());
  std::size_t pairs = 0;
  std::size_t nonconverged = 0;
  for (const Topology topo : kTopologies) {
    const std::size_t nets = 23;
    for (std::size_t t = 0; t < nets; ++t) {
      const std::size_t n = topo == Topology::kDense
                                ? 5 + rng.uniform_index(3)   // 5..7
                                : 6 + rng.uniform_index(5);  // 6..10
      const auto net = random_network(rng, topo, n);
      const bn::InferenceEngine ve(net, kExact);
      for (std::size_t ec = 0; ec < 3; ++ec) {
        const auto ev = random_evidence(rng, net, ec);
        const bn::JunctionTree jt(net, ev);
        auto bp = std::make_unique<bn::LoopyBP>(net, ev);
        ASSERT_TRUE(matches_reference_bp(*bp, net, ev, {}))
            << "topo " << static_cast<int>(topo) << " net " << t;
        if (!bp->converged()) {
          // Mirror the engine's deterministic retry: damp the flooding
          // updates when pure Jacobi oscillates on a loopy graph.
          bn::LoopyBP::Options damped;
          damped.damping = 0.5;
          damped.max_iterations = 2000;
          bp = std::make_unique<bn::LoopyBP>(net, ev, damped);
          ASSERT_TRUE(matches_reference_bp(*bp, net, ev, damped))
              << "topo " << static_cast<int>(topo) << " net " << t << " (damped)";
        }
        ++pairs;
        if (topo != Topology::kDense) {
          ASSERT_TRUE(bp->acyclic())
              << "topo " << static_cast<int>(topo) << " net " << t;
          ASSERT_TRUE(bp->converged())
              << "topo " << static_cast<int>(topo) << " net " << t;
        }
        if (!bp->converged()) ++nonconverged;
        const auto& jt_marginals = jt.all_marginals();
        for (bn::VariableId q = 0; q < net.size(); ++q) {
          const auto& bounded = bp->query(q);
          if (ev.contains(q)) {
            EXPECT_EQ(bounded.point.p(ev.at(q)), 1.0);
            EXPECT_EQ(bounded.width(), 0.0);
            continue;
          }
          const auto exact = ve.query(q, ev);
          ASSERT_TRUE(bounded.contains(exact.probs()))
              << "topo " << static_cast<int>(topo) << " net " << t
              << " var " << q << " width " << bounded.width();
          ASSERT_TRUE(bounded.contains(jt_marginals[q].probs()))
              << "topo " << static_cast<int>(topo) << " net " << t
              << " var " << q;
          ASSERT_TRUE(bounded.contains(bounded.point.probs()))
              << "topo " << static_cast<int>(topo) << " net " << t
              << " var " << q;
          if (!bp->converged()) continue;  // band applies to fixpoints
          const double band = topo == Topology::kDense
                                  ? 0.25
                                  : sysuq::tolerance::kProbSum;
          for (std::size_t s = 0; s < exact.size(); ++s) {
            ASSERT_NEAR(bounded.point.p(s), exact.p(s), band)
                << "topo " << static_cast<int>(topo) << " net " << t
                << " var " << q << " state " << s;
          }
        }
      }
    }
  }
  EXPECT_GE(pairs, 200u);
  // Flooding (with the damped retry) must converge on almost all of the
  // generated pairs — these are small, weakly coupled networks.
  EXPECT_LE(nonconverged, pairs / 20);
}

TEST(Differential, BlanketBoxMatchesOdometerEnumeration) {
  // The coalesced blanket walk against the former odometer enumeration
  // (reference_blanket_box), bit for bit, on factor graphs with cycles.
  constexpr std::size_t kCap = bn::LoopyBP::Options{}.max_blanket_configs;
  std::size_t enumerated = 0, runs = 0;

  // The loopy pairs among the 207 of LoopyBpCertifiedAndBandedAgainstExactBackends
  // (same seed, same generator calls).
  {
    pr::Rng rng(differential_seed());
    for (const Topology topo : kTopologies) {
      for (std::size_t t = 0; t < 23; ++t) {
        const std::size_t n = topo == Topology::kDense ? 5 + rng.uniform_index(3)
                                                       : 6 + rng.uniform_index(5);
        const auto net = random_network(rng, topo, n);
        for (std::size_t ec = 0; ec < 3; ++ec) {
          const auto ev = random_evidence(rng, net, ec);
          const bn::LoopyBP bp(net, ev);
          if (bp.acyclic()) continue;
          ++runs;
          ASSERT_TRUE(matches_reference_box(bp, net, ev, kCap, enumerated))
              << "topo " << static_cast<int>(topo) << " net " << t << " ev " << ec;
        }
      }
    }
  }
  EXPECT_GE(runs, 20u);

  // Noisy-OR pairs of 4-12 causes, 2-4 causes or children observed,
  // zero leak on every third.
  pr::Rng rng(differential_seed() + 7);
  for (std::size_t t = 0; t < 24; ++t) {
    const auto net = noisy_or_pair(rng, 4 + rng.uniform_index(9), t % 3 == 0 ? 0.0 : 0.02);
    const std::size_t first_child = net.size() - 4;
    bn::Evidence ev{{net.size() - 1, rng.uniform_index(2)}};
    const std::size_t observed = 2 + rng.uniform_index(3);
    while (ev.size() < observed + 1) ev[rng.uniform_index(first_child + 2)] = rng.uniform_index(2);
    const bn::LoopyBP bp(net, ev);
    if (bp.acyclic()) continue;  // the observed causes cut every cycle
    ++runs;
    ASSERT_TRUE(matches_reference_box(bp, net, ev, kCap, enumerated)) << "noisy-or " << t;

    // Capped at exactly the first child's configuration count it is
    // enumerated; one below, it is relaxed (containment only).
    const bn::VariableId child = first_child;
    if (ev.contains(child)) continue;
    std::size_t configs = 1;
    for (const bn::VariableId p : net.parents(child))
      if (!ev.contains(p)) configs *= 2;
    for (const std::size_t cap : {configs, configs - 1}) {
      if (cap == 0) continue;
      bn::LoopyBP::Options options;
      options.max_blanket_configs = cap;
      ASSERT_EQ(reference_blanket_box(net, ev, child, cap).enumerated, cap == configs);
      const bn::LoopyBP capped(net, ev, options);
      ASSERT_TRUE(matches_reference_box(capped, net, ev, cap, enumerated))
          << "noisy-or " << t << " cap " << cap;
    }
  }

  // 3- and 4-state dense DAGs, where coalescing merges non-binary
  // dimensions, and 2-3-state ones with exact zeros (configurations of
  // zero weight, some evidence impossible).
  for (std::size_t t = 0; t < 40; ++t) {
    const bool zeros = t % 2 == 1;
    const auto net = zeros ? random_network(rng, Topology::kDense, 6 + rng.uniform_index(3), 2, 2, 0.3)
                           : random_network(rng, Topology::kDense, 5 + rng.uniform_index(3), 3, 2);
    const auto ev = random_evidence(rng, net, rng.uniform_index(3));
    const bn::LoopyBP bp(net, ev);
    if (bp.acyclic()) continue;
    ++runs;
    ASSERT_TRUE(matches_reference_box(bp, net, ev, kCap, enumerated)) << "dense " << t;
  }
  EXPECT_GE(enumerated, 300u);
}

TEST(Differential, SingleVariableCertificateMatchesTheFullRun) {
  // Every unobserved variable of the 207 pairs of
  // LoopyBpCertifiedAndBandedAgainstExactBackends (same seed, same
  // generator calls), then of 2-state dense DAGs with exact zeros, some
  // of whose evidence is impossible, also capped at 2 blanket
  // configurations so most blankets relax.
  std::size_t runs = 0, impossible = 0;
  const auto check = [&](const bn::BayesianNetwork& net, const bn::Evidence& ev,
                         const bn::LoopyBP::Options& options, const std::string& at) {
    const bn::LoopyBP full(net, ev, options);
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      if (ev.contains(v)) continue;
      ++runs;
      ASSERT_TRUE(matches_full_run(full, bn::LoopyBP(net, ev, options, v), v, ev, impossible))
          << at << " var " << v;
    }
  };
  pr::Rng rng(differential_seed());
  for (const Topology topo : kTopologies) {
    for (std::size_t t = 0; t < 23; ++t) {
      const std::size_t n = topo == Topology::kDense ? 5 + rng.uniform_index(3)
                                                     : 6 + rng.uniform_index(5);
      const auto net = random_network(rng, topo, n);
      for (std::size_t ec = 0; ec < 3; ++ec) {
        const auto ev = random_evidence(rng, net, ec);
        check(net, ev, {},
              "topo " + std::to_string(static_cast<int>(topo)) + " net " + std::to_string(t));
      }
    }
  }
  pr::Rng zeros(differential_seed() + 13);
  bn::LoopyBP::Options capped;
  capped.max_blanket_configs = 2;
  for (std::size_t t = 0; t < 60; ++t) {
    const auto net = random_network(zeros, Topology::kDense, 6 + zeros.uniform_index(3), 2, 2, 0.3);
    const auto ev = random_evidence(zeros, net, 1 + zeros.uniform_index(3));
    check(net, ev, {}, "zeros " + std::to_string(t));
    check(net, ev, capped, "zeros capped " + std::to_string(t));
  }
  EXPECT_GE(runs, 1500u) << impossible;
  EXPECT_GE(impossible, 20u) << runs;
}

TEST(Differential, EngineBackendsAgreeOnBatches) {
  pr::Rng rng(differential_seed() + 1);
  for (const Topology topo : kTopologies) {
    const auto net = random_network(rng, topo, 7);
    const auto ev = random_evidence(rng, net, 1);
    std::vector<bn::QuerySpec> batch;
    for (bn::VariableId q = 0; q < net.size(); ++q) {
      if (!ev.contains(q)) batch.push_back({q, ev});
    }
    bn::InferenceEngine ve_engine(
        net, {.threads = 2, .backend = bn::Backend::kVariableElimination});
    bn::InferenceEngine jt_engine(
        net, {.threads = 2, .backend = bn::Backend::kJunctionTree});
    bn::InferenceEngine auto_engine(
        net, {.threads = 2, .backend = bn::Backend::kAuto,
              .jt_batch_threshold = 2});
    const auto a = ve_engine.query_batch(batch);
    const auto b = jt_engine.query_batch(batch);
    const auto c = auto_engine.query_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (std::size_t s = 0; s < a[i].size(); ++s) {
        ASSERT_NEAR(a[i].p(s), b[i].p(s), sysuq::tolerance::kProbSum) << i;
        ASSERT_NEAR(a[i].p(s), c[i].p(s), sysuq::tolerance::kProbSum) << i;
      }
    }
    // The Auto engine actually took the junction-tree path.
    EXPECT_GE(auto_engine.jt_cache_stats().entries, 1u);
  }
}

// ---- treewidth-hostile grid: kAuto must escalate, not die ----

TEST(Differential, AutoEscalatesOnTreewidthHostileGrid) {
  // Pinned 25x25 binary grid (625 variables, parents = left + up).
  // The min-fill plan's largest intermediate table exceeds the default
  // Options::max_exact_table_cells ceiling (2^24 cells), so exact
  // inference is infeasible; Backend::kAuto must escalate to loopy BP
  // and return converged, finitely bounded posteriors without throwing.
  const auto net = grid_network(25, 25);
  bn::InferenceEngine engine(net,
                             {.threads = 2, .backend = bn::Backend::kAuto});
  const bn::Evidence ev{{0, 1}, {net.size() - 1, 0}};
  const bn::VariableId center = 12 * 25 + 12;

  // Many fill costs tie on the grid: the incremental ordering and the
  // bucketed replay still reproduce the former full scans.
  const auto keys = bn::evidence_keys(ev);
  const auto ordering = bn::compute_elimination_order(net, {}, keys);
  EXPECT_TRUE(same_ordering(ordering, reference_min_fill(net, {}, keys)));
  EXPECT_TRUE(same_ordering(bn::compute_elimination_order(net, {center}, keys),
                            reference_min_fill(net, {center}, keys)));
  EXPECT_TRUE(same_steps(bn::simulate_elimination(net, ev, ordering.order, {}),
                         reference_replay(net, ev, ordering.order, {})));
  EXPECT_TRUE(same_steps(bn::simulate_elimination(net, ev, ordering.order, {center}),
                         reference_replay(net, ev, ordering.order, {center})));

  // The one-sweep messages reproduce the former per-edge update here too.
  EXPECT_TRUE(matches_reference_bp(bn::LoopyBP(net, ev), net, ev, {}));

  // The guard is load-bearing: the plain query path must route to BP.
  const auto point = engine.query(center, ev);
  EXPECT_NEAR(point.p(0) + point.p(1), 1.0, sysuq::tolerance::kProbSum);
  EXPECT_GE(engine.bp_cache_stats().entries, 1u);

  const auto profile = engine.explain(center, ev);
  EXPECT_EQ(profile.backend, "loopy_bp");
  EXPECT_NE(profile.backend_reason.find("escalated"), std::string::npos);
  EXPECT_TRUE(profile.bp_converged);

  const auto bounded = engine.all_marginals_bounded(ev);
  ASSERT_EQ(bounded.size(), net.size());
  double max_width = 0.0;
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    const auto& b = bounded[v];
    EXPECT_TRUE(b.converged) << v;
    ASSERT_EQ(b.lo.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(std::isfinite(b.lo[s]) && std::isfinite(b.hi[s])) << v;
      EXPECT_GE(b.lo[s], 0.0) << v;
      EXPECT_LE(b.hi[s], 1.0) << v;
      EXPECT_LE(b.lo[s], b.hi[s]) << v;
    }
    EXPECT_TRUE(b.contains(b.point.probs())) << v;
    max_width = std::max(max_width, b.width());
  }
  // Finite, non-vacuous certification: the blanket box must beat the
  // trivial [0, 1] interval everywhere on this weakly coupled grid.
  EXPECT_LT(max_width, 1.0);
}

TEST(Differential, OverCeilingNetworkPlanKeepsPerSignatureMinFill) {
  // The plan rule's other side: a 12x12 grid whose network-wide plan has
  // a table past a 1024-cell ceiling. Every signature then keeps its own
  // min-fill plan, which VE runs and explain() reports, and kAuto still
  // escalates to BP.
  const auto net = grid_network(12, 12);
  constexpr std::size_t kCeiling = 1024;
  ASSERT_GT(bn::compute_elimination_order(net, {}, {}).max_table_cells, kCeiling);
  const bn::InferenceEngine ve(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination,
            .max_exact_table_cells = kCeiling});
  const bn::InferenceEngine auto_engine(
      net, {.threads = 1, .max_exact_table_cells = kCeiling});
  pr::Rng rng(differential_seed() + 5);
  for (int round = 0; round < 4; ++round) {
    bn::Evidence ev;
    while (ev.size() < 2) ev[rng.uniform_index(net.size())] = rng.uniform_index(2);
    bn::VariableId q = rng.uniform_index(net.size());
    while (ev.contains(q)) q = (q + 1) % net.size();
    const auto want = bn::compute_elimination_order(net, {}, bn::evidence_keys(ev));
    ASSERT_GT(want.max_table_cells, kCeiling);

    // explain() prints the signature plan's figures and runs its order
    // over the CPTs requisite for q, minus q.
    const auto profile = ve.explain(q, ev);
    EXPECT_EQ(profile.induced_width, want.induced_width) << "round " << round;
    EXPECT_EQ(profile.fill_edges, want.fill_edges) << "round " << round;
    std::vector<bn::VariableId> got;
    for (const auto& step : profile.steps) got.push_back(step.variable);
    EXPECT_EQ(got, reference_steps(net, want.order, q, ev)) << "round " << round;

    const auto escalated = auto_engine.explain(q, ev);
    EXPECT_EQ(escalated.backend, "loopy_bp") << "round " << round;
  }
}

// ---- requisite-set VE vs the enumeration oracle ----

TEST(Differential, RequisiteEliminationMatchesOracle) {
  // Chains, trees and dense DAGs of 2-3 states, dense 3-4-state DAGs, and
  // 2-3-state DAGs with exact-zero CPT entries (impossible evidence, and
  // observed states impossible under some row), under 0-3 observed
  // variables (1-4 on the last family). For every free query and one
  // joint, VE equals the oracle within kProbSum or throws its
  // impossible-evidence message, and explain() lists the signature's
  // order filtered to the reference requisite set.
  pr::Rng rng(differential_seed() + 11);
  std::size_t pairs = 0, impossible = 0, pruned = 0, fallbacks = 0;
  for (std::size_t t = 0; t < 100; ++t) {
    const std::size_t family = t % 5;
    const auto net =
        family < 3    ? random_network(rng, kTopologies[family], 5 + rng.uniform_index(3), 2, 2)
        : family == 3 ? random_network(rng, Topology::kDense, 4 + rng.uniform_index(2), 3, 2)
                      : random_network(rng, Topology::kDense, 5 + rng.uniform_index(3), 2, 2, 0.3);
    const bn::InferenceEngine ve(net, kExact);
    const auto network = bn::compute_elimination_order(net, {}, {});
    for (std::size_t ec = 0; ec < 3; ++ec) {
      const std::size_t observed = rng.uniform_index(4) + (family == 4 ? 1 : 0);
      const auto ev = random_evidence(rng, net, observed);
      const std::string at = "net " + std::to_string(t) + " ev " + std::to_string(ec);
      ++pairs;
      std::vector<bn::VariableId> free;
      for (bn::VariableId v = 0; v < net.size(); ++v)
        if (!ev.contains(v)) free.push_back(v);
      const bn::VariableId x = free[rng.uniform_index(free.size())];
      const bn::VariableId y = free[(std::find(free.begin(), free.end(), x) - free.begin() + 1) %
                                    free.size()];
      if (!(bn::enumerate_evidence_probability(net, ev) > 0.0)) {
        ++impossible;
        const std::string msg = bn::impossible_evidence_message(net, ev);
        const auto expect_throws = [&](auto&& call, const std::string& what) {
          try {
            call();
            ADD_FAILURE() << what << " did not throw, " << at;
          } catch (const std::domain_error& e) {
            EXPECT_EQ(std::string(e.what()), msg) << what << ", " << at;
          }
        };
        for (const bn::VariableId q : free) {
          expect_throws([&] { (void)ve.query(q, ev); }, "query " + std::to_string(q));
          expect_throws([&] { (void)ve.explain(q, ev); }, "explain " + std::to_string(q));
        }
        if (x != y) expect_throws([&] { (void)ve.joint(x, y, ev); }, "joint");
        continue;
      }
      for (const bn::VariableId q : free) {
        const auto want = bn::enumerate_posterior(net, q, ev);
        const auto got = ve.query(q, ev);
        for (std::size_t s = 0; s < want.size(); ++s)
          ASSERT_NEAR(got.p(s), want.p(s), tol::kProbSum) << "q " << q << ", " << at;
        std::vector<bn::VariableId> steps;
        for (const auto& step : ve.explain(q, ev).steps) steps.push_back(step.variable);
        ASSERT_EQ(steps, reference_steps(net, network.order, q, ev)) << "q " << q << ", " << at;
        const auto ball = reference_bayes_ball(net, {q}, ev);
        if (reference_requisite(net, {q}, ev) != ball) ++fallbacks;
        else if (ball != reference_ancestral(net, {q}, ev)) ++pruned;
      }
      if (x == y) continue;
      // P(x, y | e) = P(y | e) P(x | e, y), row by row.
      const auto joint = ve.joint(x, y, ev);
      const auto py = bn::enumerate_posterior(net, y, ev);
      for (std::size_t j = 0; j < py.size(); ++j) {
        bn::Evidence given = ev;
        given[y] = j;
        std::vector<double> px(net.variable(x).cardinality(), 0.0);
        if (py.p(j) > 0.0) px = bn::enumerate_posterior(net, x, given).probs();
        for (std::size_t i = 0; i < px.size(); ++i)
          ASSERT_NEAR(joint.p(i, j), py.p(j) * px[i], tol::kProbSum)
              << "joint " << x << "," << y << ", " << at;
      }
    }
  }
  EXPECT_EQ(pairs, 300u);
  EXPECT_GE(impossible, 5u);
  EXPECT_GE(pruned, 200u);
  EXPECT_GE(fallbacks, 5u);
}

// ---- junction trees with dead cells vs the enumeration oracle ----

TEST(Differential, ZeroCompressedJunctionTreeMatchesOracle) {
  // Networks whose exact zeros leave clique cells that are zero under
  // every evidence, which the calibration skips: generated fault trees
  // (0/1 gate CPTs) and 2-3-state DAGs with exact-zero CPT entries, under
  // 0-3 observed variables. The network-wide structure's calibration, the
  // per-signature JunctionTree(net, ev) and kAuto all_marginals each match
  // the oracle within kProbSum; on impossible evidence each reports
  // log P(e) = -inf and throws the identical message.
  pr::Rng rng(differential_seed() + 13);
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t pairs = 0, impossible = 0, with_dead_cells = 0;
  for (std::size_t t = 0; t < 80; ++t) {
    const auto net = t % 2 == 0
                         ? random_fault_tree(rng)
                         : random_network(rng, Topology::kDense, 5 + rng.uniform_index(3), 2, 2, 0.3);
    const bn::JunctionTreeStructure compiled(net, bn::compute_elimination_order(net, {}, {}));
    if (compiled.live_cells() < compiled.cells()) ++with_dead_cells;
    const bn::InferenceEngine engine(net, {.threads = 1});
    for (std::size_t ec = 0; ec < 3; ++ec) {
      const auto ev = random_evidence(rng, net, rng.uniform_index(4));
      const std::string at = "net " + std::to_string(t) + " ev " + std::to_string(ec);
      ++pairs;
      const bn::JunctionTree calibrated(compiled, ev);
      const bn::JunctionTree per_signature(net, ev);
      const double pe = bn::enumerate_evidence_probability(net, ev);
      if (!(pe > 0.0)) {
        ++impossible;
        const std::string msg = bn::impossible_evidence_message(net, ev);
        const auto expect_throws = [&](auto&& call, const char* what) {
          try {
            call();
            ADD_FAILURE() << what << " did not throw, " << at;
          } catch (const std::domain_error& e) {
            EXPECT_EQ(std::string(e.what()), msg) << what << ", " << at;
          }
        };
        EXPECT_EQ(calibrated.log_evidence_probability(), -inf) << at;
        EXPECT_EQ(per_signature.log_evidence_probability(), -inf) << at;
        EXPECT_EQ(engine.log_evidence_probability(ev), -inf) << at;
        expect_throws([&] { (void)calibrated.all_marginals(); }, "compiled");
        expect_throws([&] { (void)per_signature.all_marginals(); }, "per-signature");
        expect_throws([&] { (void)engine.all_marginals(ev); }, "kAuto");
        continue;
      }
      for (const bn::JunctionTree* tree : {&calibrated, &per_signature}) {
        ASSERT_NEAR(tree->evidence_probability(), pe, tol::kProbSum) << at;
        ASSERT_NEAR(tree->log_evidence_probability(), std::log(pe), tol::kProbSum) << at;
      }
      const auto& compiled_marginals = calibrated.all_marginals();
      const auto& per_signature_marginals = per_signature.all_marginals();
      const auto all = engine.all_marginals(ev);
      for (bn::VariableId v = 0; v < net.size(); ++v) {
        if (ev.contains(v)) continue;
        const auto want = bn::enumerate_posterior(net, v, ev);
        for (std::size_t s = 0; s < want.size(); ++s) {
          ASSERT_NEAR(compiled_marginals[v].p(s), want.p(s), tol::kProbSum) << "compiled " << at;
          ASSERT_NEAR(per_signature_marginals[v].p(s), want.p(s), tol::kProbSum)
              << "per-signature " << at;
          ASSERT_NEAR(all[v].p(s), want.p(s), tol::kProbSum) << "kAuto " << at;
        }
      }
    }
  }
  EXPECT_EQ(pairs, 240u);
  EXPECT_GE(impossible, 20u);
  EXPECT_GE(with_dead_cells, 40u);  // every fault tree, and some DAGs
}

// ---- likelihood weighting within sampling tolerance ----

TEST(Differential, LikelihoodWeightingWithinSamplingTolerance) {
  pr::Rng rng(differential_seed() + 2);
  for (const Topology topo : kTopologies) {
    const auto net = random_network(rng, topo, 6);
    const auto ev = random_evidence(rng, net, 1);
    const bn::JunctionTree jt(net, ev);
    for (bn::VariableId q = 0; q < net.size(); ++q) {
      if (ev.contains(q)) continue;
      pr::Rng sample_rng(differential_seed() + 100 + q);
      const auto approx =
          bn::likelihood_weighting(net, q, ev, 120000, sample_rng);
      const auto exact = jt.query(q);
      for (std::size_t s = 0; s < exact.size(); ++s) {
        // ~15 standard errors at this sample count: robust across the CI
        // seed sweep while still catching systematic disagreement.
        ASSERT_NEAR(approx.p(s), exact.p(s), 0.03)
            << "topo " << static_cast<int>(topo) << " var " << q;
      }
      break;  // one query per network keeps the sampling budget bounded
    }
  }
}

// ---- impossible-evidence parity across every backend ----

TEST(Differential, ImpossibleEvidenceMessageIdenticalAcrossBackends) {
  // Two shapes: the minimal unreachable-state chain, and a generated
  // network extended with a child whose second state is unreachable.
  pr::Rng rng(differential_seed() + 3);
  std::vector<std::pair<bn::BayesianNetwork, bn::Evidence>> cases;
  cases.emplace_back(unreachable_state_network(), bn::Evidence{{1, 1}});
  {
    auto net = random_network(rng, Topology::kTree, 5);
    const auto child = net.add_variable("stuck", {"lo", "hi"});
    std::vector<pr::Categorical> rows;
    for (std::size_t r = 0; r < net.variable(0).cardinality(); ++r)
      rows.push_back(pr::Categorical({1.0, 0.0}));
    net.set_cpt(child, {0}, std::move(rows));
    cases.emplace_back(std::move(net), bn::Evidence{{child, 1}});
  }

  for (const auto& [net, impossible] : cases) {
    const std::string expected =
        bn::impossible_evidence_message(net, impossible);
    const bn::VariableId query = 0;  // never the observed variable

    const auto expect_throws = [&](auto&& fn, const char* tag) {
      try {
        fn();
        FAIL() << tag << ": expected std::domain_error";
      } catch (const std::domain_error& e) {
        EXPECT_EQ(std::string(e.what()), expected) << tag;
      }
    };

    const bn::JunctionTree jt(net, impossible);
    EXPECT_EQ(jt.log_evidence_probability(),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(jt.evidence_probability(), 0.0);
    expect_throws([&] { (void)jt.query(query); }, "jt.query");
    expect_throws([&] { (void)jt.all_marginals(); }, "jt.all_marginals");

    for (const auto backend :
         {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree,
          bn::Backend::kAuto}) {
      bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});
      expect_throws([&] { (void)engine.query(query, impossible); },
                    "engine.query");
      expect_throws([&] { (void)engine.all_marginals(impossible); },
                    "engine.all_marginals");
      expect_throws([&] { (void)engine.query_batch({{query, impossible}}); },
                    "engine.query_batch");
      EXPECT_NEAR(engine.evidence_probability(impossible), 0.0, tol::kSeries);
      EXPECT_EQ(engine.log_evidence_probability(impossible),
                -std::numeric_limits<double>::infinity());
    }

    // Likelihood weighting shares the message prefix (it appends its
    // sampling-effort suffix, covered by the engine tests).
    pr::Rng lw_rng(7);
    try {
      (void)bn::likelihood_weighting(net, query, impossible, 500, lw_rng);
      FAIL() << "expected std::domain_error";
    } catch (const std::domain_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u)
          << e.what();
    }
  }
}

// ---- deep-evidence underflow regression ----

TEST(Differential, DeepEvidenceChainIsNotSpuriouslyImpossible) {
  // 400-variable binary chain where state 1 is rare (~1e-3) everywhere;
  // observing 150 of those rare states puts P(e) near 1e-420, far below
  // the smallest double. The legacy linear impossible-evidence check
  // (!(total > 0)) saw the underflowed product of reduced factors and
  // threw the domain_error spuriously; the scaled kernels must answer
  // the query, keep log P(e) finite, and agree with the junction tree
  // (whose per-message normalization never underflowed on this shape).
  const std::size_t n = 400;
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < n; ++i)
    net.add_variable("x" + std::to_string(i), {"0", "1"});
  net.set_cpt(0, {}, {pr::Categorical({0.5, 0.5})});
  for (bn::VariableId v = 1; v < n; ++v) {
    net.set_cpt(v, {v - 1}, {pr::Categorical({0.999, 0.001}),
                             pr::Categorical({0.998, 0.002})});
  }
  bn::Evidence deep;
  for (bn::VariableId v = 2; v <= 300; v += 2) deep[v] = 1;
  ASSERT_EQ(deep.size(), 150u);

  // VE query: previously threw the impossible-evidence domain_error.
  const bn::InferenceEngine engine(net, kExact);
  const pr::Categorical posterior = engine.query(0, deep);

  // P(e) underflows the linear double return — but must not throw.
  EXPECT_EQ(engine.evidence_probability(deep), 0.0);

  // log P(e) stays finite, matching the junction tree's per-message log
  // accumulation.
  const double ve_log = engine.log_evidence_probability(deep);
  EXPECT_TRUE(std::isfinite(ve_log));
  EXPECT_LT(ve_log, -900.0);  // genuinely below linear-double range

  const bn::JunctionTree jt(net, deep);
  const double jt_log = jt.log_evidence_probability();
  EXPECT_TRUE(std::isfinite(jt_log));
  EXPECT_NEAR(ve_log, jt_log, 1e-6 * std::abs(jt_log));
  const pr::Categorical jt_posterior = jt.query(0);
  EXPECT_NEAR(jt_posterior.p(0), posterior.p(0), tol::kProbSum);

  // Genuinely impossible evidence on the same chain still throws: state
  // 1 of x1 is unreachable once the transition to it carries zero mass.
  bn::BayesianNetwork hard = net;
  hard.set_cpt(1, {0},
               {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  const bn::InferenceEngine hard_ve(hard, kExact);
  EXPECT_THROW((void)hard_ve.query(0, bn::Evidence{{1, 1}}),
               std::domain_error);
}

// ---- subnormal normalizer regression ----

TEST(Differential, SubnormalEvidenceProbabilityAnswersOnEveryBackend) {
  // P(e) near 1e-310 is subnormal: its inverse overflows to inf, so a
  // normalizer that multiplies by 1 / total turned every table it scaled
  // into infinities (VE's rescale, the junction tree's collect, BP's
  // messages) and answered "impossible" or threw. Shape 1 observes b = 1
  // on a -> b -> c with P(b = 1 | a) = 1e-310, 3e-310 (P(e) = 2.4e-310);
  // shape 2 observes a = 1 with P(a = 1) = 1e-310. Every backend and
  // query_bounded must match the oracle.
  const auto chain = [](double a1, double b1_given_a0, double b1_given_a1) {
    bn::BayesianNetwork net;
    for (const char* name : {"a", "b", "c"}) net.add_variable(name, {"0", "1"});
    net.set_cpt(0, {}, {pr::Categorical({1.0 - a1, a1})});
    net.set_cpt(1, {0}, {pr::Categorical({1.0 - b1_given_a0, b1_given_a0}),
                         pr::Categorical({1.0 - b1_given_a1, b1_given_a1})});
    net.set_cpt(2, {1}, {pr::Categorical({0.6, 0.4}), pr::Categorical({0.2, 0.8})});
    return net;
  };
  const double tiny = 1e-310;  // sysuq-lint-allow(magic-epsilon): a subnormal probability, not slack
  const std::vector<std::pair<bn::BayesianNetwork, bn::Evidence>> shapes = {
      {chain(0.7, tiny, 3 * tiny), {{1, 1}}},
      {chain(tiny, 0.25, 0.5), {{0, 1}}},
  };
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const auto& [net, ev] = shapes[k];
    const double pe = bn::enumerate_evidence_probability(net, ev);
    ASSERT_NEAR(pe / tiny, k == 0 ? 2.4 : 1.0, tol::kProbSum);
    ASSERT_LT(pe, std::numeric_limits<double>::min());  // subnormal
    const double log_pe = std::log(pe);
    if (k == 0) {
      ASSERT_NEAR(bn::enumerate_posterior(net, 0, ev).p(1), 0.875, tol::kProbSum);
    }
    for (const auto backend : {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree,
                               bn::Backend::kAuto, bn::Backend::kLoopyBP}) {
      const bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});
      const std::string at =
          "shape " + std::to_string(k) + " backend " + std::to_string(static_cast<int>(backend));
      EXPECT_NEAR(engine.log_evidence_probability(ev), log_pe, tol::kProbSum) << at;
      const auto all = engine.all_marginals(ev);
      for (bn::VariableId v = 0; v < net.size(); ++v) {
        if (ev.contains(v)) continue;
        const auto want = bn::enumerate_posterior(net, v, ev);
        const auto got = engine.query(v, ev);
        const auto bounded = engine.query_bounded(v, ev);
        for (std::size_t s = 0; s < want.size(); ++s) {
          EXPECT_NEAR(got.p(s), want.p(s), tol::kProbSum) << at << " query " << v;
          EXPECT_NEAR(all[v].p(s), want.p(s), tol::kProbSum) << at << " all " << v;
          EXPECT_NEAR(bounded.point.p(s), want.p(s), tol::kProbSum) << at << " bounded " << v;
          EXPECT_LE(bounded.lo[s], want.p(s) + tol::kProbSum) << at << " bounded " << v;
          EXPECT_GE(bounded.hi[s], want.p(s) - tol::kProbSum) << at << " bounded " << v;
        }
      }
    }
  }
}

// ---- Table I golden regression, both exact backends ----

TEST(Differential, Table1GoldenPosteriorsUnderBothBackends) {
  // Hard-coded Bayes inversions of the paper's Table I CPT with the
  // Sec. V priors (0.6 / 0.3 / 0.1), default deficit->none repair.
  // Any backend drift — ordering, clique construction, normalization —
  // breaks these digits.
  const double kPrior[4] = {0.5415, 0.273, 0.065, 0.1205};
  const double kPosterior[4][3] = {
      {0.99722991689750706, 0.0027700831024930748, 0.0},  // perc = car
      {0.010989010989010988, 0.98901098901098905, 0.0},   // perc = ped
      {0.46153846153846151, 0.23076923076923075,
       0.30769230769230776},  // perc = car/ped
      {0.22406639004149373, 0.11203319502074686,
       0.66390041493775931},  // perc = none
  };
  const double kLogEvidenceCar = -0.61341221254109179;

  const auto net = sysuq::perception::table1_network();
  for (const auto backend :
       {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree}) {
    SCOPED_TRACE(backend == bn::Backend::kVariableElimination ? "ve" : "jt");
    bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});

    const auto prior = engine.query(net.id_of("perception"));
    for (std::size_t s = 0; s < 4; ++s)
      EXPECT_NEAR(prior.p(s), kPrior[s], tol::kTiny) << s;

    for (std::size_t o = 0; o < 4; ++o) {
      const auto post = engine.query(0, {{1, o}});
      for (std::size_t s = 0; s < 3; ++s)
        EXPECT_NEAR(post.p(s), kPosterior[o][s], tol::kTiny) << o << "/" << s;
    }

    const auto all = engine.all_marginals({{1, 0}});
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_NEAR(all[0].p(s), kPosterior[0][s], tol::kTiny) << s;
    EXPECT_EQ(all[1].p(0), 1.0);  // observed variable holds its delta

    EXPECT_NEAR(engine.log_evidence_probability({{1, 0}}), kLogEvidenceCar,
                tol::kTiny);
  }
}

TEST(Differential, Table1GoldenDecompositionFigures) {
  // The uncertainty-attribution figures bench_table1_perception_cpt
  // prints for the default repair policy, pinned to full precision.
  const auto net = sysuq::perception::table1_network();
  const bn::InferenceEngine ve(net, kExact);
  const auto joint = ve.joint(1, 0);
  EXPECT_NEAR(net.cpt_rows(0)[0].entropy(), 0.8979457248567797, tol::kTiny);
  EXPECT_NEAR(sysuq::sys::surprise_factor(joint), 0.19831888266846187,
              tol::kTiny);
  EXPECT_NEAR(sysuq::sys::normalized_surprise(joint), 0.22085842961175994,
              tol::kTiny);
  // Epistemic indicator mass and the ontological prior/posterior pair.
  EXPECT_NEAR(ve.query(1).p(sysuq::perception::kPercCarPedestrian), 0.065,
              tol::kTiny);
  EXPECT_NEAR(net.cpt_rows(0)[0].p(sysuq::perception::kGtUnknown), 0.1,
              tol::kTiny);
  const auto none_post =
      ve.query(0, {{1, sysuq::perception::kPercNone}});
  EXPECT_NEAR(none_post.p(sysuq::perception::kGtUnknown),
              0.66390041493775931, tol::kTiny);
}
