#include "bayesnet/junction_tree.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

// Junction-tree instruments, registered once on first use. Counters
// aggregate across every tree built in the process.
struct JtMetrics {
  obs::Counter& builds;
  obs::Histogram& calibration_seconds;
  obs::Histogram& cliques;
  obs::Histogram& max_clique_size;

  static JtMetrics& instance() {
    auto& reg = obs::Registry::global();
    static JtMetrics m{
        reg.counter("bayesnet.jt.builds"),
        reg.histogram("bayesnet.jt.calibration_seconds", obs::seconds_buckets()),
        reg.histogram("bayesnet.jt.cliques", obs::count_buckets()),
        reg.histogram("bayesnet.jt.max_clique_size",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}),
    };
    return m;
  }
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Sums out every scope variable not in `keep` (keep is sorted) in one
// strided pass; the result's scope is scope ∩ keep.
kernels::Table marginalize_to(const kernels::View& f,
                              const std::vector<VariableId>& keep,
                              Arena& arena) {
  VariableId kept[kernels::kMaxRank];
  std::size_t nkept = 0;
  for (std::size_t i = 0; i < f.rank; ++i) {
    if (std::binary_search(keep.begin(), keep.end(), f.scope[i]))
      kept[nkept++] = f.scope[i];
  }
  return kernels::marginalize_keep(f, kept, nkept, arena);
}

std::size_t intersection_size(const std::vector<VariableId>& a,
                              const std::vector<VariableId>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

std::vector<VariableId> intersection(const std::vector<VariableId>& a,
                                     const std::vector<VariableId>& b) {
  std::vector<VariableId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence)
    : JunctionTree(net, evidence,
                   compute_elimination_order(net, /*keep=*/{}, evidence_keys(evidence))) {}

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence,
                           const EliminationOrdering& ordering)
    : net_(net), evidence_(evidence) {
  net_.validate();
  for (const auto& [v, state] : evidence_) {
    if (v >= net_.size())
      throw std::out_of_range("JunctionTree: evidence variable id");
    if (state >= net_.variable(v).cardinality())
      throw std::out_of_range("JunctionTree: evidence state index");
  }
  // The ordering must eliminate each unobserved variable exactly once.
  std::vector<char> seen(net_.size(), 0);
  for (const auto& [v, _] : evidence_) seen[v] = 1;
  bool exact = ordering.order.size() + evidence_.size() == net_.size();
  for (const VariableId v : ordering.order)
    exact = exact && v < net_.size() && std::exchange(seen[v], 1) == 0;
  if (!exact)
    throw std::invalid_argument(
        "JunctionTree: the ordering must eliminate exactly the unobserved "
        "variables");
  const obs::Span span("bayesnet.jt.calibrate");
  auto& metrics = JtMetrics::instance();
  const obs::HistogramTimer timer(metrics.calibration_seconds);
  // Timed directly as well: the obs histogram aggregates across trees,
  // while build_seconds() attributes this one build (and stays live
  // under SYSUQ_OBS=OFF for `explain`).
  const auto t0 = std::chrono::steady_clock::now();
  calibrate(ordering);
  build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics.builds.inc();
  metrics.cliques.observe(static_cast<double>(cliques_.size()));
  metrics.max_clique_size.observe(static_cast<double>(max_clique_size_));
}

void JunctionTree::calibrate(const EliminationOrdering& ordering) {
  const std::size_t n = net_.size();

  // 1–2: the elimination cliques are the product scopes of the
  // ordering's replay; keep the maximal ones. A later clique can only be
  // subsumed by an earlier one (its eliminated vertex is gone from all
  // later graphs), so one backward containment scan suffices.
  const auto raw = simulate_elimination(net_, evidence_, ordering.order, /*keep=*/{});
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto& clique = raw[i].scope;
    bool subsumed = false;
    for (std::size_t j = 0; j < i && !subsumed; ++j) {
      subsumed = std::includes(raw[j].scope.begin(), raw[j].scope.end(),
                               clique.begin(), clique.end());
    }
    if (!subsumed) cliques_.push_back(clique);
  }
  for (const auto& clique : cliques_)
    max_clique_size_ = std::max(max_clique_size_, clique.size());

  // Degenerate case: every variable observed. The joint probability of
  // the evidence is the product of the fully reduced CPT constants.
  if (cliques_.empty()) {
    for (VariableId v = 0; v < n; ++v) {
      Factor f = net_.cpt_factor(v);
      for (const auto& [ev, state] : evidence_) {
        if (f.contains(ev)) f = f.reduce(ev, state);
      }
      const double t = f.total();
      if (!(t > 0.0)) {
        impossible_ = true;
        log_evidence_ = -std::numeric_limits<double>::infinity();
        return;
      }
      log_evidence_ += std::log(t);
    }
    marginals_.reserve(n);
    for (VariableId v = 0; v < n; ++v) {
      marginals_.push_back(prob::Categorical::delta(
          evidence_.at(v), net_.variable(v).cardinality()));
    }
    return;
  }

  // 3: clique tree as a deterministic maximum-weight spanning tree over
  // separator cardinalities (Prim from clique 0; ties break toward the
  // smallest clique index, then the smallest attachment index). For a
  // chordal graph any such tree has the running-intersection property.
  const std::size_t m = cliques_.size();
  std::vector<char> in_tree(m, 0);
  std::vector<std::size_t> parent(m, kNone);
  std::vector<std::size_t> order;  // insertion order: parents first
  order.reserve(m);
  in_tree[0] = 1;
  order.push_back(0);
  for (std::size_t step = 1; step < m; ++step) {
    std::size_t best_new = kNone;
    std::size_t best_attach = kNone;
    std::size_t best_w = 0;
    bool found = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (in_tree[i]) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (!in_tree[j]) continue;
        const std::size_t w = intersection_size(cliques_[i], cliques_[j]);
        if (!found || w > best_w) {
          found = true;
          best_w = w;
          best_new = i;
          best_attach = j;
        }
      }
    }
    in_tree[best_new] = 1;
    parent[best_new] = best_attach;
    order.push_back(best_new);
  }
  std::vector<std::vector<std::size_t>> children(m);
  std::vector<std::vector<VariableId>> sep(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (parent[i] == kNone) continue;
    children[parent[i]].push_back(i);
    sep[i] = intersection(cliques_[i], cliques_[parent[i]]);
  }

  // Potentials, messages, and beliefs are strided arena tables; only
  // the per-variable marginals are materialized at the end. One arena
  // frame spans the whole calibration (beliefs reference the messages).
  Arena& arena = kernels::thread_scratch();
  arena.reset();

  // 4: evidence absorption — every CPT factor, reduced by the evidence,
  // lands in the first clique covering its reduced scope (one exists:
  // each reduced family is a clique of the evidence-deleted moral graph).
  std::vector<Factor> owned;
  owned.reserve(n);
  std::vector<kernels::View> potential(m, kernels::unit_view());
  for (VariableId v = 0; v < n; ++v) {
    owned.push_back(net_.cpt_factor(v));
    kernels::View f = kernels::view_of(owned.back());
    for (const auto& [ev, state] : evidence_) {
      if (f.contains(ev)) f = kernels::reduce(f, ev, state, arena).view();
    }
    std::size_t home = kNone;
    for (std::size_t c = 0; c < m && home == kNone; ++c) {
      if (std::includes(cliques_[c].begin(), cliques_[c].end(), f.scope,
                        f.scope + f.rank)) {
        home = c;
      }
    }
    if (home == kNone)
      throw std::logic_error("JunctionTree: factor scope not covered");
    potential[home] = kernels::product(potential[home], f, arena).view();
  }

  // 5a: collect — leaves toward the root (reverse insertion order).
  // Each message is normalized as it flows and its log-normalizer
  // accumulated, so P(e) never underflows; an all-zero message means the
  // evidence is impossible (zeros only propagate outward).
  std::vector<kernels::View> up(m, kernels::unit_view());
  const auto give_up = [&] {
    impossible_ = true;
    log_evidence_ = -std::numeric_limits<double>::infinity();
    arena_high_water_ = kernels::thread_scratch().bytes_used();
    kernels::thread_scratch().reset();
  };
  for (std::size_t idx = m; idx-- > 1;) {
    const std::size_t i = order[idx];
    kernels::View b = potential[i];
    for (const std::size_t c : children[i])
      b = kernels::product(b, up[c], arena).view();
    kernels::Table msg = marginalize_to(b, sep[i], arena);
    const double t = kernels::total(msg.values, msg.size);
    if (!(t > 0.0)) return give_up();
    log_evidence_ += std::log(t);
    kernels::scale(msg.values, msg.size, 1.0 / t);
    up[i] = msg.view();
  }
  {
    kernels::View root = potential[order[0]];
    for (const std::size_t c : children[order[0]])
      root = kernels::product(root, up[c], arena).view();
    const double t = kernels::total(root.values, root.size);
    if (!(t > 0.0)) return give_up();
    log_evidence_ += std::log(t);
  }

  // 5b: distribute — root toward the leaves (insertion order). Messages
  // are normalized for stability only; per-variable marginals are
  // normalized at extraction, so the constants cancel.
  std::vector<kernels::View> down(m, kernels::unit_view());
  for (const std::size_t i : order) {
    if (children[i].empty()) continue;
    const kernels::View base =
        kernels::product(potential[i], down[i], arena).view();
    for (const std::size_t c : children[i]) {
      kernels::View b = base;
      for (const std::size_t c2 : children[i]) {
        if (c2 != c) b = kernels::product(b, up[c2], arena).view();
      }
      kernels::Table msg = marginalize_to(b, sep[c], arena);
      const double t = kernels::total(msg.values, msg.size);
      if (!(t > 0.0)) return give_up();  // unreachable when P(e) > 0
      kernels::scale(msg.values, msg.size, 1.0 / t);
      down[c] = msg.view();
    }
  }

  // 6: calibrated beliefs and eager marginal extraction. Each variable
  // reads off the first clique containing it.
  std::vector<kernels::View> belief;
  belief.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    kernels::View b = kernels::product(potential[i], down[i], arena).view();
    for (const std::size_t c : children[i])
      b = kernels::product(b, up[c], arena).view();
    belief.push_back(b);
  }
  std::vector<std::size_t> home(n, kNone);
  for (std::size_t c = 0; c < m; ++c) {
    for (const VariableId v : cliques_[c]) {
      if (home[v] == kNone) home[v] = c;
    }
  }
  marginals_.reserve(n);
  for (VariableId v = 0; v < n; ++v) {
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      marginals_.push_back(
          prob::Categorical::delta(it->second, net_.variable(v).cardinality()));
      continue;
    }
    if (home[v] == kNone)
      throw std::logic_error("JunctionTree: variable in no clique");
    const kernels::Table f = marginalize_to(belief[home[v]], {v}, arena);
    marginals_.push_back(prob::Categorical::normalized(
        std::vector<double>(f.values, f.values + f.size)));
  }
  arena_high_water_ = arena.bytes_used();
  arena.reset();
}

void JunctionTree::throw_impossible() const {
  throw std::domain_error(impossible_evidence_message(net_, evidence_));
}

prob::Categorical JunctionTree::query(VariableId v) const {
  if (v >= net_.size())
    throw std::out_of_range("JunctionTree::query: variable id");
  if (impossible_) throw_impossible();
  return marginals_[v];
}

const std::vector<prob::Categorical>& JunctionTree::all_marginals() const {
  if (impossible_) throw_impossible();
  return marginals_;
}

double JunctionTree::evidence_probability() const {
  return std::exp(log_evidence_);
}

}  // namespace sysuq::bayesnet
