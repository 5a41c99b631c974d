#include "bayesnet/loopy_bp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Loopy-BP instruments, registered once on first use. Counters and
// histograms aggregate across every run in the process; the engine's
// kAuto escalation counter lives in engine.cpp next to its guard.
struct BpMetrics {
  obs::Counter& runs;
  obs::Counter& nonconverged;
  obs::Counter& blanket_configs;
  obs::Counter& relaxed_blankets;
  obs::Counter& sweeps_reused;
  obs::Histogram& iterations;
  obs::Histogram& residual;
  obs::Histogram& bound_width;

  static BpMetrics& instance() {
    auto& reg = obs::Registry::global();
    static BpMetrics m{
        reg.counter("bayesnet.bp.runs"),
        reg.counter("bayesnet.bp.nonconverged"),
        reg.counter("bayesnet.bp.blanket_configs"),
        reg.counter("bayesnet.bp.relaxed_blankets"),
        reg.counter("bayesnet.bp.sweeps_reused"),
        reg.histogram("bayesnet.bp.iterations", obs::count_buckets()),
        reg.histogram(
            "bayesnet.bp.residual",
            {1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0}),  // sysuq-lint-allow(magic-epsilon): histogram bucket boundaries, not comparison slack
        reg.histogram(
            "bayesnet.bp.bound_width",
            {1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0}),  // sysuq-lint-allow(magic-epsilon): histogram bucket boundaries, not comparison slack
    };
    return m;
  }
};

// Union-find over the factor-graph nodes, for the acyclicity check.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns false when a and b were already connected (a cycle).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Log dynamic range between two normalized messages of `n` entries:
/// max_i log(a[i]/b[i]) - min_i log(a[i]/b[i]). Entries where both are
/// zero agree exactly and are skipped; a one-sided zero is an infinite
/// ratio. 0 when every entry is skipped or the messages coincide.
double log_range_between(const double* a, const double* b, std::size_t n) {
  double lo = kInf, hi = -kInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0.0 && b[i] == 0.0) continue;  // sysuq-lint-allow(float-eq): exactly-zero mass agrees exactly
    if (a[i] == 0.0 || b[i] == 0.0) return kInf;  // sysuq-lint-allow(float-eq): one-sided exact zero is an infinite ratio
    // sysuq-lint-allow(log-domain): ratio of two linear probabilities, logged once
    const double r = std::log(a[i] / b[i]);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (!(hi >= lo)) return 0.0;  // all entries skipped
  return hi - lo;
}

/// One level of FactorGraph::sweep: R_{k+1} (`r`, n blocks of c cells)
/// scatters into the message `m` (m(t) = sum_b p[b] * R_{k+1}(b, t)) and
/// sums its fastest position out into `suffix` against the incoming
/// message `mu`; `suffix` may be `r` itself. C fixes the cardinality so
/// a binary level accumulates m in locals and writes it once, instead of
/// a load and a store through `m` per block; C = 0 reads c at run time
/// and accumulates in `m`. Both add the same terms in the same order.
template <std::size_t C>
void sweep_level(const double* r, const double* p, const double* mu,
                 std::size_t n, std::size_t c_rt, double* m,
                 double* suffix) {
  const std::size_t c = C == 0 ? c_rt : C;
  double local[C == 0 ? 1 : C] = {};
  double* acc = C == 0 ? m : local;
  std::fill(acc, acc + c, 0.0);
  for (std::size_t b = 0; b < n; ++b) {
    const double* cell = r + b * c;
    double sum = 0.0;
    for (std::size_t t = 0; t < c; ++t) {
      acc[t] += p[b] * cell[t];
      sum += cell[t] * mu[t];
    }
    suffix[b] = sum;
  }
  if constexpr (C != 0) std::copy(local, local + C, m);
}

// The exact Markov-blanket box of one variable v, walked over coalesced
// runs (see the file comment of loopy_bp.hpp). Touching factor t's cell
// for v = i at position j of the inner run sits at
// tables[t][off[t] + j * inner[t] + i * vstride[t]]; the outer runs move
// off[] like a mixed-radix counter, last run fastest.
struct BlanketWalk {
  std::size_t card = 0;               // v's states
  std::size_t nt = 0;                 // touching factors
  std::size_t len = 1;                // configurations of the inner run
  std::size_t configs = 1;            // configurations of the blanket
  std::vector<const double*> tables;  // per touching factor
  std::vector<std::size_t> vstride;   // per touching factor, along v
  std::vector<std::size_t> inner;     // per touching factor, along the inner run
  std::vector<std::size_t> cards;     // per outer run
  std::vector<std::size_t> strides;   // outer run r, factor t at r * nt + t
  // Walk scratch; off and w serve the runtime instantiation only.
  std::vector<std::size_t> off, idx;
  std::vector<double> w;

  /// Lays out the runs from `step` (blanket variable k's stride in
  /// touching factor t at k * nt + t, 0 when t lacks k) and the blanket
  /// variables' cardinalities, in blanket order. Variable k joins the
  /// run of k - 1 when every touching factor stores the two
  /// contiguously, step[k - 1] == step[k] * card_k (0 = 0 * c counts;
  /// v's own dimension breaks contiguity in every touching factor, since
  /// all of them hold v). The run with the most configurations becomes
  /// the inner loop.
  void coalesce(const std::vector<std::size_t>& step,
                const std::vector<std::size_t>& blanket_cards);

  /// Envelopes the run's configurations into lo/hi and returns the
  /// any-feasible flag; see blanket_envelope.
  bool envelope(double* lo, double* hi);

  /// The any-feasible flag alone: true at the first configuration and
  /// state whose product (1.0 times each touching factor's cell, left to
  /// right, as in blanket_envelope) is positive. A sum of non-negative
  /// terms is positive exactly when one term is, so this is the
  /// envelope's wsum > 0 test, bit for bit.
  bool feasible();

  /// Moves `off` (one offset per touching factor; `n` is nt, passed so
  /// an instantiation can fix it) to the next outer configuration, last
  /// run fastest.
  void next_block(std::size_t* off, std::size_t n) {
    for (std::size_t r = cards.size(); r-- > 0;) {
      const std::size_t* s = strides.data() + r * n;
      for (std::size_t t = 0; t < n; ++t) off[t] += s[t];
      if (++idx[r] < cards[r]) break;
      for (std::size_t t = 0; t < n; ++t) off[t] -= s[t] * cards[r];
      idx[r] = 0;
    }
  }
};

/// Envelopes P(v = i | B = b, e) over every blanket configuration b of
/// `walk` into lo/hi (min and max, in place); true when some
/// configuration has positive mass. Per configuration and state i: w_i
/// is 1.0 times each touching factor's cell, left to right; wsum adds
/// w_0 .. w_{c-1} from 0.0; and a positive wsum moves lo_i and hi_i by
/// w_i / wsum. C and T fix v's states and the touching factors, so a
/// binary variable's envelope stays in registers; C = T = 0 reads both
/// at run time. Min, max and the flag are exact in any visiting order,
/// which lets the walk put its largest run innermost.
template <std::size_t C, std::size_t T>
bool blanket_envelope(BlanketWalk& walk, double* lo_out, double* hi_out) {
  const std::size_t c = C == 0 ? walk.card : C;
  const std::size_t nt = T == 0 ? walk.nt : T;
  double lo_l[C == 0 ? 1 : C] = {}, hi_l[C == 0 ? 1 : C] = {};
  double w_l[C == 0 ? 1 : C] = {};
  std::size_t off_l[T == 0 ? 1 : T] = {};
  double* lo = C == 0 ? lo_out : lo_l;
  double* hi = C == 0 ? hi_out : hi_l;
  double* w = C == 0 ? walk.w.data() : w_l;
  std::size_t* off = T == 0 ? walk.off.data() : off_l;
  if constexpr (C != 0) {
    std::copy(lo_out, lo_out + C, lo);
    std::copy(hi_out, hi_out + C, hi);
  }
  std::fill(off, off + nt, std::size_t{0});
  std::fill(walk.idx.begin(), walk.idx.end(), std::size_t{0});
  const double* const* tables = walk.tables.data();
  const std::size_t* vstride = walk.vstride.data();
  const std::size_t* inner = walk.inner.data();
  const std::size_t len = walk.len;
  const std::size_t blocks = walk.configs / len;
  bool feasible = false;
  for (std::size_t blk = 0;;) {
    // -O2 leaves the state loops rolled, and a rolled loop sends w
    // through memory; unrolled, a binary pass keeps it in registers.
    for (std::size_t j = 0; j < len; ++j) {
      double wsum = 0.0;
#pragma GCC unroll 4
      for (std::size_t i = 0; i < c; ++i) {
        double prod = 1.0;
#pragma GCC unroll 4
        for (std::size_t t = 0; t < nt; ++t) {
          prod *= tables[t][off[t] + j * inner[t] + i * vstride[t]];
        }
        w[i] = prod;
        wsum += prod;
      }
      if (wsum > 0.0) {
        feasible = true;
#pragma GCC unroll 4
        for (std::size_t i = 0; i < c; ++i) {
          lo[i] = std::min(lo[i], w[i] / wsum);
          hi[i] = std::max(hi[i], w[i] / wsum);
        }
      }
    }
    if (++blk == blocks) break;
    walk.next_block(off, nt);
  }
  if constexpr (C != 0) {
    std::copy(lo, lo + C, lo_out);
    std::copy(hi, hi + C, hi_out);
  }
  return feasible;
}

void BlanketWalk::coalesce(const std::vector<std::size_t>& step,
                           const std::vector<std::size_t>& blanket_cards) {
  cards.clear();
  strides.clear();
  for (std::size_t k = 0; k < blanket_cards.size(); ++k) {
    const std::size_t ck = blanket_cards[k];
    const std::size_t* sk = step.data() + k * nt;
    bool joins = k > 0;
    for (std::size_t t = 0; joins && t < nt; ++t) {
      joins = step[(k - 1) * nt + t] == sk[t] * ck;
    }
    if (joins) {
      cards.back() *= ck;
      std::copy(sk, sk + nt, strides.end() - static_cast<std::ptrdiff_t>(nt));
    } else {
      cards.push_back(ck);
      strides.insert(strides.end(), sk, sk + nt);
    }
  }
  len = 1;
  inner.assign(nt, 0);
  if (!cards.empty()) {
    const auto longest = std::max_element(cards.begin(), cards.end());
    const auto first = strides.begin() + (longest - cards.begin()) *
                                             static_cast<std::ptrdiff_t>(nt);
    const auto last = first + static_cast<std::ptrdiff_t>(nt);
    len = *longest;
    std::copy(first, last, inner.begin());
    strides.erase(first, last);
    cards.erase(longest);
  }
  idx.resize(cards.size());
}

bool BlanketWalk::envelope(double* lo, double* hi) {
  if (card == 2 && nt == 1) return blanket_envelope<2, 1>(*this, lo, hi);
  if (card == 2 && nt == 2) return blanket_envelope<2, 2>(*this, lo, hi);
  if (card == 2 && nt == 3) return blanket_envelope<2, 3>(*this, lo, hi);
  off.resize(nt);
  w.resize(card);
  return blanket_envelope<0, 0>(*this, lo, hi);
}

bool BlanketWalk::feasible() {
  off.assign(nt, 0);
  std::fill(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t blk = 0, blocks = configs / len;;) {
    for (std::size_t j = 0; j < len; ++j) {
      for (std::size_t i = 0; i < card; ++i) {
        double prod = 1.0;
        for (std::size_t t = 0; t < nt; ++t) {
          prod *= tables[t][off[t] + j * inner[t] + i * vstride[t]];
        }
        if (prod > 0.0) return true;
      }
    }
    if (++blk == blocks) return false;
    next_block(off.data(), nt);
  }
}

}  // namespace

struct LoopyBP::FactorGraph {
  // One directed edge pair of the factor graph: factor `factor` <->
  // variable `var` at position `pos` of the factor's reduced scope. Both
  // of its messages sit at [msg, msg + card) of the flat buffers below.
  struct Edge {
    std::size_t factor = 0;
    VariableId var = 0;
    std::size_t pos = 0;
    std::size_t msg = 0;
    std::size_t card = 0;
  };

  std::vector<Factor> factors;  // evidence-reduced, scalars dropped
  // Edges run in factor-index then scope order: factor fi's edge for
  // scope position k is first_edge[fi] + k.
  std::vector<std::size_t> first_edge;
  std::vector<Edge> edges;
  std::vector<std::vector<std::size_t>> edges_of_var;  // var -> edge ids
  std::vector<double> to_var;     // m_{factor -> var}, normalized
  std::vector<double> to_factor;  // m_{var -> factor}, normalized
  // The latest undamped factor->var update (to_var's layout): after the
  // run, one more sweep from the resting messages, normalized.
  std::vector<double> staged;
  // Sweep scratch: the prefix-product tables and the suffix sums.
  std::vector<double> prefix, suffix;

  // Sweep reuse. A sweep is a deterministic function of the factor's
  // table and the var->factor messages it reads, so a tracked factor that
  // reads bitwise the messages of its last sweep writes that sweep's
  // outputs again (update()). A factor is tracked when its table has at
  // least kReuseCells times as many cells as it reads message entries;
  // below that, comparing and copying cost about what the sweep does
  // (no factor of a binary grid is tracked).
  static constexpr std::size_t kReuseCells = 4;
  enum class Reuse : std::uint8_t { kUntracked, kEmpty, kReady };
  std::vector<Reuse> reuse;  // per factor
  // What each tracked factor read and wrote at its last sweep, in
  // to_factor's and to_var's layout; allocated at the first tracked sweep.
  std::vector<double> last_read, last_sent;
  std::size_t sweeps_reused = 0;

  /// Marks the factors worth tracking; run once the edges are laid out.
  void track_reuse() {
    reuse.assign(factors.size(), Reuse::kUntracked);
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
      if (factors[fi].values().size() >= kReuseCells * message_entries(fi))
        reuse[fi] = Reuse::kEmpty;
    }
  }

  /// The entries of factor fi's messages, which sit back to back from
  /// its first edge's offset in to_var and to_factor alike.
  [[nodiscard]] std::size_t message_entries(std::size_t fi) const {
    const Edge& last = edges[first_edge[fi] + factors[fi].scope().size() - 1];
    return last.msg + last.card - edges[first_edge[fi]].msg;
  }

  /// sweep(fi, out), or, when factor fi is tracked and every
  /// var->factor message it reads is bitwise the one its last sweep
  /// read, that sweep's outputs written to `out` again.
  void update(std::size_t fi, double* out) {
    if (reuse[fi] == Reuse::kUntracked) return sweep(fi, out);
    update_tracked(fi, out);
  }

  // Out of line, so an untracked factor pays one load and one branch
  // (inlined, the tracked path cost ~1% per 25x25 grid run, 4-vCPU VM).
  [[gnu::noinline]] void update_tracked(std::size_t fi, double* out) {
    const std::size_t at = edges[first_edge[fi]].msg;
    const std::size_t n = message_entries(fi);
    const double* in = to_factor.data() + at;
    if (reuse[fi] == Reuse::kReady &&
        std::memcmp(in, last_read.data() + at, n * sizeof(double)) == 0) {
      std::copy_n(last_sent.data() + at, n, out + at);
      ++sweeps_reused;
      return;
    }
    sweep(fi, out);
    last_read.resize(to_factor.size());
    last_sent.resize(to_var.size());
    std::copy_n(in, n, last_read.data() + at);
    std::copy_n(out + at, n, last_sent.data() + at);
    reuse[fi] = Reuse::kReady;
  }

  /// Writes the undamped update of every message factor `fi` sends into
  /// `out` (same layout as to_var, not normalized), from the current
  /// var->factor messages; see the file comment of loopy_bp.hpp.
  void sweep(std::size_t fi, double* out) {
    const Factor& f = factors[fi];
    const auto& cards = f.cardinalities();
    const Edge* edge = edges.data() + first_edge[fi];
    const std::size_t d = cards.size();

    // Prefix tables P_0 = {1}, P_{k+1}(x<k, t) = P_k(x<k) * mu_k(t), back
    // to back; P_k holds prod_{i<k} c_i entries.
    std::size_t at = 0, n = 1, need = 1;
    for (std::size_t k = 0; k + 1 < d; ++k) {
      n *= cards[k];
      need += n;
    }
    prefix.resize(need);
    suffix.resize(n);
    prefix[0] = 1.0;
    n = 1;
    for (std::size_t k = 0; k + 1 < d; ++k) {
      const double* mu = to_factor.data() + edge[k].msg;
      const double* p = prefix.data() + at;
      double* next = prefix.data() + at + n;
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t t = 0; t < cards[k]; ++t)
          next[b * cards[k] + t] = p[b] * mu[t];
      }
      at += n;
      n *= cards[k];
    }

    // Levels d-1 down to 0: R_{k+1} (psi itself first) scatters into
    // m_k and sums its fastest position out into R_k, in place.
    const double* r = f.values().data();
    for (std::size_t k = d; k-- > 0;) {
      const double* mu = to_factor.data() + edge[k].msg;
      const double* p = prefix.data() + at;
      double* m = out + edge[k].msg;
      if (cards[k] == 2) {
        sweep_level<2>(r, p, mu, n, 2, m, suffix.data());
      } else {
        sweep_level<0>(r, p, mu, n, cards[k], m, suffix.data());
      }
      r = suffix.data();
      if (k > 0) {
        n /= cards[k - 1];
        at -= n;
      }
    }
  }

  /// Per edge e = (f -> v), a certified bound on the log-range distance
  /// from its resting message to the BP fixpoint, from the contraction
  /// system below; run after the extra sweep has filled `staged`.
  [[nodiscard]] std::vector<double> fixpoint_distances() const {
    // Per factor: dynamic range D = max psi / min psi, Dobrushin-style
    // contraction rate (D-1)/(D+1), and an absolute log-range cap log D
    // (a single factor cannot skew any message by more than its own
    // dynamic range). A factor with zero entries has D = inf: rate 1,
    // no cap.
    std::vector<double> rate(factors.size()), cap(factors.size());
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
      const auto& vals = factors[fi].values();
      double vmin = kInf, vmax = 0.0;
      for (const double x : vals) {
        vmin = std::min(vmin, x);
        vmax = std::max(vmax, x);
      }
      if (vmin <= 0.0) {
        rate[fi] = 1.0;
        cap[fi] = kInf;
      } else {
        const double d = vmax / vmin;
        rate[fi] = (d - 1.0) / (d + 1.0);
        cap[fi] = std::log(d);
      }
    }

    // eps_e bounds the log-range distance from the resting message on
    // edge e to the fixpoint,
    //   eps_e = b_e + min(cap_f, rate_f * sum of upstream eps),
    // where b_e is the log-range residual of the extra undamped update.
    // Seeded from the sound overestimate b_e + cap_f and iterated
    // monotonically downward (every iterate stays a valid bound).
    std::vector<double> residual(edges.size()), eps(edges.size());
    for (std::size_t eid = 0; eid < edges.size(); ++eid) {
      const Edge& e = edges[eid];
      residual[eid] = log_range_between(staged.data() + e.msg,
                                        to_var.data() + e.msg, e.card);
      eps[eid] = residual[eid] + cap[e.factor];
    }
    std::vector<double> next_eps(edges.size());
    for (std::size_t pass = 0; pass < 100; ++pass) {
      double change = 0.0;
      for (std::size_t eid = 0; eid < edges.size(); ++eid) {
        const Edge& e = edges[eid];
        double upstream = 0.0;
        const auto& scope = factors[e.factor].scope();
        for (std::size_t pos = 0; pos < scope.size(); ++pos) {
          if (pos == e.pos) continue;
          for (const std::size_t in : edges_of_var[scope[pos]]) {
            if (edges[in].factor == e.factor) continue;
            // sysuq-lint-allow(log-domain): eps holds log-range distances (Ihler bounds), not probabilities
            upstream += eps[in];
          }
        }
        // sysuq-lint-allow(log-domain): contraction rate scaling a log-range magnitude — the Ihler bound, not a domain mixup
        const double contracted = rate[e.factor] == 0.0  // sysuq-lint-allow(float-eq): guard 0 * inf when a uniform factor meets an unbounded upstream
                                      ? 0.0
                                      : rate[e.factor] * upstream;
        next_eps[eid] = residual[eid] + std::min(cap[e.factor], contracted);
        if (std::isfinite(next_eps[eid]) || std::isfinite(eps[eid])) {
          change = std::max(change, std::abs(eps[eid] - next_eps[eid]));
        }
      }
      eps.swap(next_eps);
      if (change < tolerance::kFixpoint) break;
    }
    return eps;
  }
};

double BoundedPosterior::width() const {
  double w = 0.0;
  for (std::size_t i = 0; i < lo.size(); ++i) w = std::max(w, hi[i] - lo[i]);
  return w;
}

bool BoundedPosterior::contains(std::span<const double> probs,
                                double slack) const {
  if (probs.size() != lo.size()) return false;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] < lo[i] - slack || probs[i] > hi[i] + slack) return false;
  }
  return true;
}

LoopyBP::LoopyBP(const BayesianNetwork& net, const Evidence& evidence)
    : LoopyBP(net, evidence, Options{}) {}

LoopyBP::LoopyBP(const BayesianNetwork& net, const Evidence& evidence,
                 Options options, std::optional<VariableId> certify_only)
    : net_(net), evidence_(evidence), options_(options),
      certify_only_(certify_only) {
  SYSUQ_EXPECT(options_.max_iterations >= 1,
               "LoopyBP: max_iterations must be >= 1");
  SYSUQ_EXPECT(options_.damping >= 0.0 && options_.damping < 1.0,
               "LoopyBP: damping must be in [0, 1)");
  SYSUQ_EXPECT(options_.tolerance > 0.0, "LoopyBP: tolerance must be > 0");
  SYSUQ_EXPECT(options_.max_blanket_configs >= 1,
               "LoopyBP: max_blanket_configs must be >= 1");
  net_.validate();
  net_.check_evidence(evidence_);
  if (certify_only_ && *certify_only_ >= net_.size())
    throw std::out_of_range("LoopyBP: certify_only variable id");

  const obs::Span span("bayesnet.bp.run");
  const auto t0 = std::chrono::steady_clock::now();
  FactorGraph graph;
  build_factor_graph(graph);
  if (!impossible_) run_message_passing(graph);
  if (!impossible_) extract_marginals(graph);
  if (!impossible_) {
    const obs::Span certify("bayesnet.bp.certify");
    certify_bounds(graph);
  }
  build_seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  auto& metrics = BpMetrics::instance();
  metrics.runs.inc();
  metrics.sweeps_reused.inc(graph.sweeps_reused);
  if (!impossible_ && !converged_) metrics.nonconverged.inc();
  metrics.iterations.observe(static_cast<double>(iterations_));
  if (std::isfinite(final_residual_)) metrics.residual.observe(final_residual_);
  metrics.bound_width.observe(max_bound_width_);
}

void LoopyBP::build_factor_graph(FactorGraph& g) {
  g.edges_of_var.assign(net_.size(), {});
  g.factors.reserve(net_.size());
  for (VariableId child = 0; child < net_.size(); ++child) {
    Factor f = net_.cpt_factor(child).reduce(evidence_);
    if (f.scope().empty()) {
      // Fully observed family: a constant multiplying P(e). Zero means
      // the evidence directly contradicts this CPT.
      if (f.values().front() <= 0.0) impossible_ = true;
      continue;
    }
    g.factors.push_back(std::move(f));
  }

  // Edges in factor-index then scope-position order — this IS the
  // deterministic flooding schedule.
  DisjointSets components(net_.size() + g.factors.size());
  acyclic_ = true;
  std::size_t msg = 0;
  for (std::size_t fi = 0; fi < g.factors.size(); ++fi) {
    g.first_edge.push_back(g.edges.size());
    const auto& scope = g.factors[fi].scope();
    for (std::size_t pos = 0; pos < scope.size(); ++pos) {
      const VariableId v = scope[pos];
      const std::size_t card = g.factors[fi].cardinalities()[pos];
      g.edges_of_var[v].push_back(g.edges.size());
      g.edges.push_back(
          {.factor = fi, .var = v, .pos = pos, .msg = msg, .card = card});
      msg += card;
      if (!components.unite(v, net_.size() + fi)) acyclic_ = false;
    }
  }
  g.to_var.resize(msg);
  for (const auto& e : g.edges) {
    std::fill_n(g.to_var.data() + e.msg, e.card,
                1.0 / static_cast<double>(e.card));
  }
  g.to_factor = g.to_var;
  g.track_reuse();
}

void LoopyBP::run_message_passing(FactorGraph& g) {
  const auto& edges = g.edges;
  // Normalizes every message of `staged` in place; false when one has
  // zero mass (impossible evidence).
  const auto normalize_all = [&](std::vector<double>& staged) {
    for (const auto& e : edges) {
      const double total = kernels::total(staged.data() + e.msg, e.card);
      if (total <= 0.0) return false;
      kernels::normalize_by(staged.data() + e.msg, e.card, total);
    }
    return true;
  };

  std::vector<double>& staged = g.staged;
  staged.resize(g.to_var.size());
  for (std::size_t iter = 1; iter <= options_.max_iterations; ++iter) {
    iterations_ = iter;

    // Phase 1: every factor->var message from the old var->factor set.
    for (std::size_t fi = 0; fi < g.factors.size(); ++fi) {
      g.update(fi, staged.data());
    }
    if (!normalize_all(staged)) {
      impossible_ = true;
      return;
    }
    double residual = 0.0;
    for (std::size_t i = 0; i < staged.size(); ++i)
      residual = std::max(residual, std::abs(staged[i] - g.to_var[i]));
    if (options_.damping > 0.0) {
      for (const auto& e : edges) {
        double* m = g.to_var.data() + e.msg;
        for (std::size_t i = 0; i < e.card; ++i) {
          m[i] = (1.0 - options_.damping) * staged[e.msg + i] +
                 options_.damping * m[i];
        }
        kernels::normalize_by(m, e.card, kernels::total(m, e.card));
      }
    } else {
      g.to_var.swap(staged);
    }

    // Phase 2: every var->factor message from the fresh factor->var set.
    for (std::size_t eid = 0; eid < edges.size(); ++eid) {
      const auto& e = edges[eid];
      double* m = g.to_factor.data() + e.msg;
      std::fill_n(m, e.card, 1.0);
      for (const std::size_t other : g.edges_of_var[e.var]) {
        if (other == eid) continue;
        const double* in = g.to_var.data() + edges[other].msg;
        for (std::size_t i = 0; i < e.card; ++i) m[i] *= in[i];
      }
      const double total = kernels::total(m, e.card);
      if (total <= 0.0) {
        impossible_ = true;
        return;
      }
      kernels::normalize_by(m, e.card, total);
    }

    final_residual_ = residual;
    if (residual < options_.tolerance) {
      converged_ = true;
      break;
    }
  }

  // One extra undamped sweep measures how far the resting messages are
  // from a single application of the update operator — the residual
  // input b_e of the contraction system, read only on acyclic graphs —
  // and, on every graph, flags impossible evidence as zero mass.
  for (std::size_t fi = 0; fi < g.factors.size(); ++fi) {
    g.update(fi, staged.data());
  }
  if (!normalize_all(staged)) impossible_ = true;
}

void LoopyBP::extract_marginals(const FactorGraph& g) {
  marginals_.resize(net_.size());
  std::vector<double> belief;
  for (VariableId v = 0; v < net_.size(); ++v) {
    BoundedPosterior& out = marginals_[v];
    out.converged = converged_;
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      out.point = prob::Categorical::delta(it->second,
                                           net_.variable(v).cardinality());
      const auto point = out.point.probs();
      out.lo.assign(point.begin(), point.end());
      out.hi = out.lo;
      continue;
    }
    belief.assign(net_.variable(v).cardinality(), 1.0);
    for (const std::size_t eid : g.edges_of_var[v]) {
      const double* m = g.to_var.data() + g.edges[eid].msg;
      for (std::size_t i = 0; i < belief.size(); ++i) belief[i] *= m[i];
    }
    const double total = kernels::total(belief.data(), belief.size());
    if (total <= 0.0) {
      impossible_ = true;
      return;
    }
    kernels::normalize_by(belief.data(), belief.size(), total);
    // Guard fp drift so Categorical's normalization contract holds.
    out.point = prob::Categorical::normalized(belief);
    out.lo.assign(belief.size(), 0.0);
    out.hi.assign(belief.size(), 1.0);
  }
}

void LoopyBP::certify_bounds(const FactorGraph& g) {
  const auto& edges = g.edges;
  const auto& factors = g.factors;
  // Each edge's fixpoint distance; only the contraction box below reads
  // it, and only on an acyclic graph.
  const std::vector<double> eps =
      acyclic_ ? g.fixpoint_distances() : std::vector<double>{};

  // --- Per-variable certified intervals -------------------------------
  // Every unobserved variable's blanket is tested for a feasible
  // configuration; only the certified ones get an interval.
  max_bound_width_ = 0.0;
  std::vector<double> w_lo, w_hi;
  std::vector<std::size_t> touching, step, blanket_cards;
  std::vector<VariableId> blanket;
  BlanketWalk walk;
  std::uint64_t enumerated = 0, relaxed = 0;
  for (VariableId v = 0; v < net_.size(); ++v) {
    if (evidence_.contains(v)) continue;
    const bool certify = !certify_only_ || *certify_only_ == v;
    BoundedPosterior& out = marginals_[v];
    const std::size_t card = net_.variable(v).cardinality();

    // Markov-blanket convexity box, sound on every graph: P(v | e) is a
    // convex combination over blanket configurations b of
    // P(v | B = b, e), and given the full blanket only the factors
    // touching v matter. Enumerate b exactly while feasible; otherwise
    // relax each factor to its per-state min/max envelope.
    touching.clear();
    for (const std::size_t eid : g.edges_of_var[v]) {
      touching.push_back(edges[eid].factor);
    }
    blanket.clear();
    for (const std::size_t fi : touching) {
      for (const VariableId u : factors[fi].scope()) {
        if (u != v) blanket.push_back(u);
      }
    }
    std::sort(blanket.begin(), blanket.end());
    blanket.erase(std::unique(blanket.begin(), blanket.end()), blanket.end());

    // Too many configurations is its own flag: a count past the cap is
    // never stored, so no cap (SIZE_MAX included) can wrap it.
    std::size_t configs = 1;
    bool exact = true;
    for (const VariableId u : blanket) {
      const std::size_t c = net_.variable(u).cardinality();
      if (kernels::mul_overflows(configs, c) ||
          configs * c > options_.max_blanket_configs) {
        exact = false;
        break;
      }
      configs *= c;
    }

    bool any_feasible = false;
    if (exact) {
      // Exact enumeration. Touching factor t's cell for v = i sits at
      // i * vstride[t] plus, per blanket variable k, its state times
      // step[k * nt + t] (0 when t does not hold k); the walk coalesces
      // those dimensions into runs.
      const std::size_t nt = touching.size(), nb = blanket.size();
      walk.card = card;
      walk.nt = nt;
      walk.configs = configs;
      walk.tables.resize(nt);
      walk.vstride.assign(nt, 0);
      step.assign(nb * nt, 0);
      for (std::size_t t = 0; t < nt; ++t) {
        const Factor& f = factors[touching[t]];
        walk.tables[t] = f.values().data();
        std::size_t stride = 1;
        for (std::size_t pos = f.scope().size(); pos-- > 0;) {
          const VariableId u = f.scope()[pos];
          if (u == v) {
            walk.vstride[t] = stride;
          } else {
            const auto k = static_cast<std::size_t>(
                std::lower_bound(blanket.begin(), blanket.end(), u) -
                blanket.begin());
            step[k * nt + t] = stride;
          }
          stride *= f.cardinalities()[pos];
        }
      }
      blanket_cards.resize(nb);
      for (std::size_t k = 0; k < nb; ++k) {
        blanket_cards[k] = net_.variable(blanket[k]).cardinality();
      }
      walk.coalesce(step, blanket_cards);
      if (certify) {
        out.lo.assign(card, 1.0);
        out.hi.assign(card, 0.0);
        any_feasible = walk.envelope(out.lo.data(), out.hi.data());
        enumerated += configs;
      } else {
        any_feasible = walk.feasible();
      }
    } else {
      // Relaxation: per state i, bound the weight each factor can
      // contribute by its min/max over all blanket completions; the
      // worst-case mixture of those envelopes bounds the conditional.
      if (certify) ++relaxed;
      w_lo.assign(card, 1.0);
      w_hi.assign(card, 1.0);
      for (const std::size_t fi : touching) {
        const Factor& fac = factors[fi];
        const auto& scope = fac.scope();
        const std::size_t pos = static_cast<std::size_t>(
            std::lower_bound(scope.begin(), scope.end(), v) - scope.begin());
        std::size_t stride = 1;
        for (std::size_t k = scope.size(); k-- > pos + 1;) {
          stride *= fac.cardinalities()[k];
        }
        // v's state i owns runs of `stride` cells, one per block of
        // card * stride; min and max are exact in any order.
        const auto& vals = fac.values();
        for (std::size_t i = 0; i < card; ++i) {
          double fmin = kInf, fmax = 0.0;
          for (std::size_t block = i * stride; block < vals.size();
               block += card * stride) {
            for (std::size_t j = block; j < block + stride; ++j) {
              fmin = std::min(fmin, vals[j]);
              fmax = std::max(fmax, vals[j]);
            }
          }
          w_lo[i] *= fmin;
          w_hi[i] *= fmax;
        }
      }
      double hi_total = 0.0;
      for (const double x : w_hi) hi_total += x;
      if (hi_total > 0.0) any_feasible = true;
      for (std::size_t i = 0; certify && i < card; ++i) {
        if (w_hi[i] <= 0.0) {
          out.lo[i] = 0.0;
          out.hi[i] = 0.0;
          continue;
        }
        double other_hi = 0.0, other_lo = 0.0;
        for (std::size_t j = 0; j < card; ++j) {
          if (j == i) continue;
          other_hi += w_hi[j];
          other_lo += w_lo[j];
        }
        const double lo_den = w_lo[i] + other_hi;
        out.lo[i] = lo_den > 0.0 ? w_lo[i] / lo_den : 1.0;
        out.hi[i] = w_hi[i] / (w_hi[i] + other_lo);
      }
    }
    if (!any_feasible) {
      // Every blanket completion carries zero mass: the evidence itself
      // is impossible. Message passing normally catches this first; the
      // envelope is the backstop.
      impossible_ = true;
      max_bound_width_ = 0.0;
      break;
    }
    if (!certify) continue;

    // Contraction box: on an acyclic factor graph the BP fixpoint is
    // the true posterior, so the certified fixpoint distance becomes a
    // certified truth interval — intersect it with the blanket box.
    // On loopy graphs it only measures distance-to-fixpoint and is not
    // applied.
    if (acyclic_) {
      double belief_log_range = 0.0;
      for (const std::size_t eid : g.edges_of_var[v]) {
        // sysuq-lint-allow(log-domain): eps holds log-range distances (Ihler bounds), not probabilities
        belief_log_range += eps[eid];
      }
      for (std::size_t i = 0; i < card; ++i) {
        const double p = out.point.p(i);
        double clo, chi;
        if (p <= 0.0) {
          // Message zeros only ever arise from factor zeros (supports
          // shrink monotonically from full), so a zero belief entry is
          // exact on any graph.
          clo = 0.0;
          chi = 0.0;
        } else if (p >= 1.0) {
          clo = 1.0;
          chi = 1.0;
        } else if (!std::isfinite(belief_log_range)) {
          clo = 0.0;
          chi = 1.0;
        } else {
          // A log-range shift of at most L around the belief moves the
          // normalized mass to p / (p + (1-p) e^{+/-L}).
          clo = p / (p + (1.0 - p) * std::exp(belief_log_range));
          chi = p / (p + (1.0 - p) * std::exp(-belief_log_range));
        }
        const double lo2 = std::max(out.lo[i], clo);
        const double hi2 = std::min(out.hi[i], chi);
        if (lo2 <= hi2) {
          out.lo[i] = lo2;
          out.hi[i] = hi2;
        }
      }
    }

    // Hull with the point estimate and clamp: the reported point always
    // sits inside its own certificate.
    for (std::size_t i = 0; i < card; ++i) {
      out.lo[i] = std::clamp(std::min(out.lo[i], out.point.p(i)), 0.0, 1.0);
      out.hi[i] = std::clamp(std::max(out.hi[i], out.point.p(i)), 0.0, 1.0);
    }
    max_bound_width_ = std::max(max_bound_width_, out.width());
  }
  auto& metrics = BpMetrics::instance();
  metrics.blanket_configs.inc(enumerated);
  metrics.relaxed_blankets.inc(relaxed);
}

const BoundedPosterior& LoopyBP::query(VariableId v) const {
  if (v >= net_.size()) throw std::out_of_range("LoopyBP: variable id");
  if (impossible_) throw_impossible();
  return marginals_[v];
}

bool LoopyBP::certified(VariableId v) const {
  return !certify_only_ || *certify_only_ == v || impossible_ ||
         evidence_.contains(v);
}

const std::vector<BoundedPosterior>& LoopyBP::all_marginals() const {
  if (impossible_) throw_impossible();
  return marginals_;
}

void LoopyBP::throw_impossible() const {
  throw std::domain_error(impossible_evidence_message(net_, evidence_));
}

}  // namespace sysuq::bayesnet
