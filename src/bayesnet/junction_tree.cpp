#include "bayesnet/junction_tree.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/profile.hpp"
#include "core/contracts.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

// Junction-tree instruments, registered once on first use. Counters
// aggregate across every structure and tree built in the process.
struct JtMetrics {
  obs::Counter& builds;
  obs::Counter& compiles;
  obs::Histogram& calibration_seconds;
  obs::Histogram& cliques;
  obs::Histogram& max_clique_size;

  static JtMetrics& instance() {
    auto& reg = obs::Registry::global();
    static JtMetrics m{
        reg.counter("bayesnet.jt.builds"),
        reg.counter("bayesnet.jt.compiles"),
        reg.histogram("bayesnet.jt.calibration_seconds", obs::seconds_buckets()),
        reg.histogram("bayesnet.jt.cliques", obs::count_buckets()),
        reg.histogram("bayesnet.jt.max_clique_size",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}),
    };
    return m;
  }
};

// Calls visit(x, j) for each cell x of a row-major table over `scope`,
// in order, where j is the cell of a table over `table` that x reads: the
// sum of x's states times `strides_in(scope, table)`.
template <class Visit>
void walk(const BayesianNetwork& net, const std::vector<VariableId>& scope,
          const std::vector<VariableId>& table, Visit&& visit) {
  std::vector<std::size_t> cards;
  for (const VariableId v : scope) cards.push_back(net.variable(v).cardinality());
  kernels::walk(cards.data(), strides_in(net, scope, table).data(), cards.size(), 0, visit);
}

// walk()'s cells as an index map, sized before the walk.
std::vector<std::uint32_t> index_map(const BayesianNetwork& net,
                                     const std::vector<VariableId>& scope,
                                     const std::vector<VariableId>& table) {
  std::size_t cells = 1;
  for (const VariableId v : scope) cells *= net.variable(v).cardinality();
  std::vector<std::uint32_t> map(cells);
  walk(net, scope, table,
       [&](std::size_t x, std::size_t j) { map[x] = static_cast<std::uint32_t>(j); });
  return map;
}

// The structure of a per-signature tree: `ordering` must eliminate
// exactly the unobserved variables, which the structure then spans.
JunctionTreeStructure compile_for(
    const BayesianNetwork& net, const Evidence& evidence,
    const EliminationOrdering& ordering) {
  net.validate();
  net.check_evidence(evidence);
  std::vector<char> seen(net.size(), 0);
  for (const auto& [v, _] : evidence) seen[v] = 1;
  bool exact = ordering.order.size() + evidence.size() == net.size();
  for (const VariableId v : ordering.order)
    exact = exact && v < net.size() && std::exchange(seen[v], 1) == 0;
  if (!exact)
    throw std::invalid_argument(
        "JunctionTree: the ordering must eliminate exactly the unobserved "
        "variables");
  return JunctionTreeStructure(net, ordering);
}

}  // namespace

JunctionTreeStructure::JunctionTreeStructure(const BayesianNetwork& net,
                                             const EliminationOrdering& ordering)
    : net_(net) {
  const obs::Span span("bayesnet.jt.compile");
  const std::size_t n = net_.size();
  reader_.resize(n);
  Evidence omitted;  // the replay reads only its keys
  {
    std::vector<char> named(n, 0);
    for (const VariableId v : ordering.order) {
      if (v >= n || std::exchange(named[v], 1) != 0)
        throw std::invalid_argument(
            "JunctionTreeStructure: the ordering must name known variables, "
            "each at most once");
    }
    for (VariableId v = 0; v < n; ++v) {
      if (named[v] == 0) omitted.emplace_hint(omitted.end(), v, 0);
    }
  }

  // 1: the ordering's replay has one step per spanned variable, and its
  // elimination tree is a clique tree (Blair & Peyton 1993): step i's
  // parent is the step of the earliest-eliminated variable in its scope
  // besides its own. A step whose scope is one variable smaller than a
  // child's is that child's scope minus the child's variable — not
  // maximal — and joins the child's clique; every non-maximal step has
  // such a child, so the rest are the maximal cliques, in step order.
  const auto steps = simulate_elimination(net_, omitted, ordering.order, /*keep=*/{});
  std::vector<std::vector<VariableId>> cliques;
  const std::size_t k = steps.size();
  std::vector<std::size_t> step_of(n, kNone);
  std::vector<std::size_t> parent_step(k, kNone);
  std::vector<std::size_t> clique_of(k, kNone);
  for (std::size_t i = 0; i < k; ++i) step_of[steps[i].variable] = i;
  for (std::size_t i = 0; i < k; ++i) {
    // Every child precedes its parent, so clique_of[i] is final here.
    if (clique_of[i] == kNone) {
      SYSUQ_EXPECT(steps[i].table_cells <= UINT32_MAX,
                   "JunctionTreeStructure: a clique table exceeds 2^32 cells");
      clique_of[i] = cliques.size();
      cliques.push_back(steps[i].scope);
      tree_.emplace_back().size = steps[i].table_cells;
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
  const std::size_t m = cliques.size();
  std::size_t cells = 0;
  for (Clique& c : tree_) {
    c.offset = cells;
    cells += c.size;
  }

  // 2: clique tree. A clique's steps form a chain up the elimination
  // tree; its parent is the clique holding the first step above that
  // chain, and the separator is the chain's top scope minus its variable.
  // The last step's clique is the root; the roots of other components
  // attach to it through an empty separator. Walking the steps backward
  // meets every chain top after its parent's: a parents-first order.
  // Each separator's index maps address it from both of its cliques;
  // step 5 keeps their live cells.
  std::vector<std::vector<std::uint32_t>> to_sep(m), parent_to_sep(m);
  const std::size_t root = m == 0 ? kNone : clique_of[k - 1];
  if (m > 0) order_.push_back(root);
  for (std::size_t i = k; i-- > 0;) {
    const std::size_t c = clique_of[i];
    const std::size_t p = parent_step[i] == kNone ? root : clique_of[parent_step[i]];
    if (p == c) continue;  // inside the chain, or the root itself
    order_.push_back(c);
    std::vector<VariableId> sep = steps[i].scope;
    sep.erase(std::find(sep.begin(), sep.end(), steps[i].variable));
    Clique& clique = tree_[c];
    clique.parent = p;
    clique.sep_offset = sep_cells_;
    to_sep[c] = index_map(net_, cliques[c], sep);
    parent_to_sep[c] = index_map(net_, cliques[p], sep);
    clique.sep_size = 1;
    for (const VariableId v : sep) clique.sep_size *= net_.variable(v).cardinality();
    sep_cells_ += clique.sep_size;
    max_sep_size_ = std::max(max_sep_size_, clique.sep_size);
  }

  // 3: each spanned variable reads its marginal (and takes its evidence
  // indicator) in the smallest clique holding it.
  for (std::size_t c = 0; c < m; ++c) {
    const auto& scope = cliques[c];
    std::size_t stride = 1;
    for (std::size_t d = scope.size(); d-- > 0;) {
      Reader& r = reader_[scope[d]];
      const std::size_t card = net_.variable(scope[d]).cardinality();
      if (r.clique == kNone || tree_[c].size < tree_[r.clique].size)
        r = {c, stride, card};
      stride *= card;
    }
  }

  // 4: potentials. Every CPT lands in the clique of its earliest-
  // eliminated spanned family member (that step's scope merged the whole
  // spanned family). A CPT over spanned variables only is multiplied in
  // here, once; one holding an omitted variable waits for the evidence
  // that fixes its omitted dimensions, reading the network's table. A
  // wholly omitted family has no clique: its entry is a constant factor
  // of P(e).
  potentials_.assign(cells, 1.0);
  for (VariableId v = 0; v < n; ++v) {
    const Factor& f = net_.cpt_factor(v);
    const auto& scope = f.scope();
    std::size_t first = kNone;
    bool spanned = true;
    for (const VariableId u : scope) {
      if (omitted.contains(u)) {
        spanned = false;
      } else {
        first = std::min(first, step_of[u]);
      }
    }
    const std::size_t home = first == kNone ? kNone : clique_of[first];
    if (spanned) {
      double* pot = potentials_.data() + tree_[home].offset;
      const double* values = f.values().data();
      walk(net_, cliques[home], scope,
           [&](std::size_t x, std::size_t j) { pot[x] *= values[j]; });
      continue;
    }
    ReducedCpt r{home, f.values().data(), {}, {}};
    if (home != kNone) r.cell = index_map(net_, cliques[home], scope);
    const std::vector<std::size_t> strides = strides_in(net_, scope, scope);
    for (std::size_t d = 0; d < scope.size(); ++d) {
      if (omitted.contains(scope[d])) r.omitted.emplace_back(scope[d], strides[d]);
    }
    reduced_.push_back(std::move(r));
  }

  // 5: zeros, by a boolean collect: a cell is live when its potential is
  // nonzero and, for every child, some live child cell sums onto its
  // separator cell. The reduced CPTs count as nonzero everywhere. Every
  // child precedes its parent in the reversed order, so a clique's cells
  // are final when it sends. A dead cell's potential becomes 0, as the
  // collect would make it.
  std::vector<char> live(cells);
  for (std::size_t x = 0; x < cells; ++x)
    live[x] = potentials_[x] != 0.0;  // sysuq-lint-allow(float-eq): exact zeros only
  std::vector<char> sep_live;
  for (std::size_t idx = m; idx-- > 1;) {
    const std::size_t c = order_[idx];
    const Clique& clique = tree_[c];
    const Clique& parent = tree_[clique.parent];
    sep_live.assign(clique.sep_size, 0);
    for (std::size_t x = 0; x < clique.size; ++x)
      sep_live[to_sep[c][x]] |= live[clique.offset + x];
    for (std::size_t x = 0; x < parent.size; ++x)
      live[parent.offset + x] &= sep_live[parent_to_sep[c][x]];
  }
  const auto live_links = [&](std::size_t c, const std::vector<std::uint32_t>& map) {
    const char* own = live.data() + tree_[c].offset;
    std::vector<Link> links;
    links.reserve(static_cast<std::size_t>(std::count(own, own + map.size(), char{1})));
    for (std::size_t x = 0; x < map.size(); ++x) {
      if (own[x] != 0) links.push_back({static_cast<std::uint32_t>(x), map[x]});
    }
    return links;
  };
  for (std::size_t c = 0; c < m; ++c) {
    Clique& clique = tree_[c];
    if (clique.parent == kNone) continue;
    clique.to_sep = live_links(c, to_sep[c]);
    clique.parent_to_sep = live_links(clique.parent, parent_to_sep[c]);
  }
  for (std::size_t x = 0; x < cells; ++x) {
    if (live[x] != 0) ++live_cells_;
    else potentials_[x] = 0.0;
  }

  cliques_ = std::make_shared<const std::vector<std::vector<VariableId>>>(
      std::move(cliques));
  auto& metrics = JtMetrics::instance();
  metrics.compiles.inc();
  metrics.cliques.observe(static_cast<double>(m));
  metrics.max_clique_size.observe(static_cast<double>(max_clique_size_));
}

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence)
    : JunctionTree(net, evidence,
                   compute_elimination_order(net, /*keep=*/{}, evidence_keys(evidence))) {}

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence,
                           const EliminationOrdering& ordering)
    : JunctionTree(compile_for(net, evidence, ordering), evidence) {}

JunctionTree::JunctionTree(const JunctionTreeStructure& structure,
                           const Evidence& evidence)
    : net_(structure.network()),
      evidence_(evidence),
      cliques_(structure.cliques_),
      max_clique_size_(structure.max_clique_size()),
      cells_(structure.cells()),
      live_cells_(structure.live_cells()) {
  net_.check_evidence(evidence_);
  for (VariableId v = 0; v < net_.size(); ++v) {
    if (!structure.spans(v) && !evidence_.contains(v))
      throw std::invalid_argument(
          "JunctionTree: every variable the structure omits must be observed");
  }
  const obs::Span span("bayesnet.jt.calibrate");
  auto& metrics = JtMetrics::instance();
  const obs::HistogramTimer timer(metrics.calibration_seconds);
  // Timed directly as well: the obs histogram aggregates across trees,
  // while calibration_seconds() attributes this one calibration (and
  // stays live under SYSUQ_OBS=OFF for `explain`).
  const auto t0 = std::chrono::steady_clock::now();
  calibrate(structure);
  calibration_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics.builds.inc();
}

void JunctionTree::calibrate(const JunctionTreeStructure& s) {
  const std::size_t n = net_.size();
  const std::size_t m = s.tree_.size();
  // Every table lives in the thread's scratch arena, one frame per
  // calibration; only the per-variable marginals outlive it.
  Arena& arena = kernels::thread_scratch();
  arena.reset();
  const auto give_up = [&] {
    impossible_ = true;
    log_evidence_ = -std::numeric_limits<double>::infinity();
    arena_high_water_ = arena.bytes_used();
    arena.reset();
  };

  // Potentials: the compiled products, times the CPTs that hold an
  // omitted variable with that dimension fixed by its evidence, times a
  // 0/1 indicator per observed spanned variable.
  double* belief = arena.alloc<double>(s.potentials_.size());
  std::copy(s.potentials_.begin(), s.potentials_.end(), belief);
  for (const auto& r : s.reduced_) {
    std::size_t at = 0;
    for (const auto& [v, stride] : r.omitted) at += evidence_.at(v) * stride;
    const double* values = r.values + at;
    if (r.clique == JunctionTreeStructure::kNone) {
      if (!(values[0] > 0.0)) return give_up();
      log_evidence_ += std::log(values[0]);
      continue;
    }
    double* b = belief + s.tree_[r.clique].offset;
    for (std::size_t x = 0; x < r.cell.size(); ++x) b[x] *= values[r.cell[x]];
  }
  for (const auto& [v, state] : evidence_) {
    const auto& at = s.reader_[v];
    if (at.clique == JunctionTreeStructure::kNone) continue;
    const auto& c = s.tree_[at.clique];
    double* b = belief + c.offset;
    for (std::size_t o = 0; o < c.size; o += at.stride * at.card) {
      for (std::size_t st = 0; st < at.card; ++st) {
        if (st != state) std::fill_n(b + o + st * at.stride, at.stride, 0.0);
      }
    }
  }

  if (m > 0) {
    // Collect — leaves toward the root (parents-first order reversed).
    // Each clique sums its live cells onto its separator, the message is
    // normalized and its log-normalizer accumulated (so P(e) never
    // underflows), and the parent multiplies it into its live cells. An
    // all-zero message means the evidence is impossible (zeros only
    // propagate outward).
    double* sep = arena.alloc<double>(s.sep_cells_);
    for (std::size_t idx = m; idx-- > 1;) {
      const auto& c = s.tree_[s.order_[idx]];
      const auto& p = s.tree_[c.parent];
      const double* b = belief + c.offset;
      double* u = sep + c.sep_offset;
      std::fill_n(u, c.sep_size, 0.0);
      for (const auto& [x, j] : c.to_sep) u[j] += b[x];
      const double t = kernels::total(u, c.sep_size);
      if (!(t > 0.0)) return give_up();
      log_evidence_ += std::log(t);
      kernels::normalize_by(u, c.sep_size, t);
      double* bp = belief + p.offset;
      for (const auto& [x, j] : c.parent_to_sep) bp[x] *= u[j];
    }
    const auto& r = s.tree_[s.order_[0]];
    const double t = kernels::total(belief + r.offset, r.size);
    if (!(t > 0.0)) return give_up();
    log_evidence_ += std::log(t);

    // Distribute — root toward the leaves (parents-first order). The
    // parent's calibrated belief, its live cells summed onto the
    // separator and normalized, divided by the collect message, rescales
    // the child's live cells (Hugin). Where the collect message is zero
    // every child cell behind it is already zero, so 0/0 = 0 keeps exact
    // zeros exact.
    double* msg = arena.alloc<double>(s.max_sep_size_);
    for (std::size_t idx = 1; idx < m; ++idx) {
      const auto& c = s.tree_[s.order_[idx]];
      const auto& p = s.tree_[c.parent];
      const double* bp = belief + p.offset;
      std::fill_n(msg, c.sep_size, 0.0);
      for (const auto& [x, j] : c.parent_to_sep) msg[j] += bp[x];
      const double total = kernels::total(msg, c.sep_size);
      if (!(total > 0.0)) return give_up();  // unreachable when P(e) > 0
      const double* u = sep + c.sep_offset;
      for (std::size_t j = 0; j < c.sep_size; ++j)
        msg[j] = u[j] > 0.0 ? msg[j] / total / u[j] : 0.0;
      double* b = belief + c.offset;
      for (const auto& [x, j] : c.to_sep) b[x] *= msg[j];
    }
  }

  // Marginals: observed variables hold their deltas; every other one
  // sums its reader clique's calibrated belief block by block.
  marginals_.reserve(n);
  std::vector<double> acc;
  for (VariableId v = 0; v < n; ++v) {
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      marginals_.push_back(
          prob::Categorical::delta(it->second, net_.variable(v).cardinality()));
      continue;
    }
    const auto& at = s.reader_[v];
    const auto& c = s.tree_[at.clique];
    const double* b = belief + c.offset;
    acc.assign(at.card, 0.0);
    for (std::size_t o = 0; o < c.size; o += at.stride * at.card) {
      for (std::size_t st = 0; st < at.card; ++st) {
        const double* cell = b + o + st * at.stride;
        double sum = 0.0;
        for (std::size_t j = 0; j < at.stride; ++j) sum += cell[j];
        acc[st] += sum;
      }
    }
    marginals_.push_back(prob::Categorical::normalized(acc));
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
