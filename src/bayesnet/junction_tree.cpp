#include "bayesnet/junction_tree.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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

  // 1–2: the ordering's replay has one step per unobserved variable, and
  // its elimination tree is a clique tree (Blair & Peyton 1993): step
  // i's parent is the step of the earliest-eliminated variable in its
  // scope besides its own. A step whose scope is one variable smaller
  // than a child's is that child's scope minus the child's variable —
  // not maximal — and joins the child's clique; every non-maximal step
  // has such a child, so the rest are the maximal cliques, in step order.
  const auto steps = simulate_elimination(net_, evidence_, ordering.order, /*keep=*/{});
  const std::size_t k = steps.size();
  std::vector<std::size_t> step_of(n, kNone);
  std::vector<std::size_t> parent_step(k, kNone);
  std::vector<std::size_t> clique_of(k, kNone);
  for (std::size_t i = 0; i < k; ++i) step_of[steps[i].variable] = i;
  for (std::size_t i = 0; i < k; ++i) {
    // Every child precedes its parent, so clique_of[i] is final here.
    if (clique_of[i] == kNone) {
      clique_of[i] = cliques_.size();
      cliques_.push_back(steps[i].scope);
      max_clique_size_ = std::max(max_clique_size_, steps[i].scope.size());
    }
    for (const VariableId u : steps[i].scope) {
      if (u != steps[i].variable)
        parent_step[i] = std::min(parent_step[i], step_of[u]);
    }
    const std::size_t p = parent_step[i];
    if (p != kNone && clique_of[p] == kNone &&
        steps[i].scope.size() == steps[p].scope.size() + 1)
      clique_of[p] = clique_of[i];
  }

  // Degenerate case: every variable observed. The joint probability of
  // the evidence is the product of the fully reduced CPT constants.
  if (cliques_.empty()) {
    for (VariableId v = 0; v < n; ++v) {
      const double t = net_.cpt_factor(v, evidence_).total();
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

  // 3: clique tree. A clique's steps form a chain up the elimination
  // tree; its parent is the clique holding the first step above that
  // chain, and the separator is the chain's top scope minus its variable.
  // The last step's clique is the root; the roots of other components
  // attach to it through an empty separator. Walking the steps backward
  // meets every chain top after its parent's: a parents-first order.
  const std::size_t m = cliques_.size();
  const std::size_t root = clique_of[k - 1];
  std::vector<std::size_t> order{root};
  order.reserve(m);
  std::vector<std::vector<std::size_t>> children(m);
  std::vector<std::vector<VariableId>> sep(m);
  for (std::size_t i = k; i-- > 0;) {
    const std::size_t c = clique_of[i];
    const std::size_t p = parent_step[i] == kNone ? root : clique_of[parent_step[i]];
    if (p == c) continue;  // inside the chain, or the root itself
    order.push_back(c);
    children[p].push_back(c);
    sep[c] = steps[i].scope;
    sep[c].erase(std::find(sep[c].begin(), sep[c].end(), steps[i].variable));
  }

  // Potentials, messages, and beliefs are strided arena tables; only
  // the per-variable marginals are materialized at the end. One arena
  // frame spans the whole calibration (beliefs reference the messages).
  Arena& arena = kernels::thread_scratch();
  arena.reset();

  // 4: evidence absorption — every CPT factor, reduced by the evidence,
  // lands in the clique holding the step of its earliest-eliminated
  // variable (that step's scope merged the whole family); scalar
  // families land in the root.
  std::vector<Factor> owned;
  owned.reserve(n);
  std::vector<kernels::View> potential(m, kernels::unit_view());
  for (VariableId v = 0; v < n; ++v) {
    owned.push_back(net_.cpt_factor(v, evidence_));
    const kernels::View f = kernels::view_of(owned.back());
    std::size_t first = kNone;
    for (std::size_t r = 0; r < f.rank; ++r)
      first = std::min(first, step_of[f.scope[r]]);
    const std::size_t home = first == kNone ? root : clique_of[first];
    potential[home] = kernels::product(potential[home], f, arena).view();
  }

  // 5a: collect — leaves toward the root (parents-first order reversed).
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

  // 5b: distribute — root toward the leaves (parents-first order). Messages
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
  // reads off the clique holding its own step.
  std::vector<kernels::View> belief;
  belief.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    kernels::View b = kernels::product(potential[i], down[i], arena).view();
    for (const std::size_t c : children[i])
      b = kernels::product(b, up[c], arena).view();
    belief.push_back(b);
  }
  marginals_.reserve(n);
  for (VariableId v = 0; v < n; ++v) {
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      marginals_.push_back(
          prob::Categorical::delta(it->second, net_.variable(v).cardinality()));
      continue;
    }
    const kernels::Table f =
        marginalize_to(belief[clique_of[step_of[v]]], {v}, arena);
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
