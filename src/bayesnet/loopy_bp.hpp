// Loopy belief propagation with certified per-marginal error bounds.
//
// Third backend family next to variable elimination and JunctionTree:
// flooding-schedule (synchronous / Jacobi) sum-product message passing
// on the factor graph of the evidence-reduced CPTs. Where the exact
// backends pay for treewidth — table sizes exponential in the largest
// clique — BP's cost is linear in the total CPT size per iteration, so
// it keeps answering on the treewidth-hostile networks where the
// min-fill ordering's largest elimination clique
// (`EliminationOrdering::max_table_cells`) predicts the exact backends
// would die (bench_cpt_explosion's regime).
//
// Messages: one sweep per factor per iteration yields all d of its
// outgoing messages. With the incoming messages mu_k, prefix products
// P_k = prod_{i<k} mu_i over the leading scope positions and suffix sums
// R_k = sum over the trailing positions of psi * prod_{i>=k} mu_i, the
// message to position j is m_j(t) = sum_{x<j} P_j * R_{j+1}(x<j, t).
// R_d is the table psi itself and each R_k sums the fastest position out
// of R_{k+1}, so psi is walked once and every later level is at most
// half the size of the one before: O(|psi|) per factor for all d
// messages. The sweep only multiplies and adds — it never divides a
// total by an own message — so exact zeros stay exact zeros. A level
// whose position has 2 states keeps m_0 and m_1 in registers and writes
// them once; other levels accumulate in place. Both add the same terms
// in the same order.
//
// The price is exactness: on graphs with cycles the BP fixpoint is an
// approximation. Every posterior is therefore surfaced as a
// `BoundedPosterior` — the BP point estimate plus a *certified*
// interval guaranteed to contain the true posterior P(v | e):
//
//  * Markov-blanket convexity box (sound on every graph): by the law
//    of total probability, P(v=i | e) is a convex combination over
//    blanket configurations b of P(v=i | B=b, e), and the conditional
//    given the full blanket depends only on the factors touching v. We
//    enumerate blanket configurations exactly up to
//    `Options::max_blanket_configs` and take the min/max envelope; past
//    the cap a per-factor min/max relaxation bounds the same quantity
//    from outside. The enumeration walks coalesced runs: adjacent
//    blanket variables that every touching factor stores contiguously
//    merge into one dimension (v's own dimension breaks contiguity, so
//    a fan-in parent's blanket is two runs and the child's one). The
//    envelope — a per-state min and max plus an any-feasible flag — is
//    exact in any visiting order, so the largest run is a plain inner
//    loop and a counter moves the rest. One fused pass per run computes,
//    per configuration and state i, w_i = 1.0 times each touching
//    factor's cell left to right, wsum = w_0 + ... + w_{c-1} from 0.0,
//    and, when wsum > 0, moves [lo_i, hi_i] by w_i / wsum: the former
//    per-configuration arithmetic, so every bound is unchanged bit for
//    bit. Binary variables with 1-3 touching factors get an unrolled
//    pass that keeps the envelope in registers.
//  * Dobrushin-style contraction estimate: per-factor dynamic ranges
//    D_f = max psi / min psi give contraction rates (D-1)/(D+1) and
//    log-range caps log D (Ihler-style strength bounds). Propagating
//    the final undamped message residuals through that contraction
//    system bounds the log-distance from the current messages to the
//    BP fixpoint. On an acyclic factor graph the fixpoint *is* the
//    true posterior, so there the contraction box certifies too and is
//    intersected with the blanket box; on loopy graphs it is reported
//    only through the interval when it agrees (the blanket box alone
//    is the certificate).
//
// The final interval is hulled with the point estimate, so the BP
// point always lies inside its own certified interval by construction.
//
// What a run certifies: by default every unobserved variable. A run
// built with `certify_only = v` certifies v alone — what the engine's
// `query_bounded(v, e)` reads — and leaves every other unobserved
// variable at the trivially sound [0, 1] (`certified()` tells the two
// apart). It still runs the any-feasible test of every unobserved
// variable's blanket: an enumerated blanket stops at its first
// configuration with positive mass, and one past the cap takes the
// relaxation's per-state maxima. So its impossible-evidence verdict,
// its messages and v's interval equal the full run's bit for bit.
//
// Schedule and determinism: one iteration updates every factor->var
// message from the previous iteration's var->factor messages (in
// factor-index, then scope-position order), then every var->factor
// message from the fresh factor->var messages. Damping
// m' = (1-lambda)*update + lambda*m applies to the factor->var half.
// The schedule is sequential and fixed, so posteriors are
// byte-identical across runs and independent of any thread count.
//
// Impossible evidence (P(e) = 0) is detected when a message or belief
// normalizes to zero mass (generalized arc consistency — sound, since
// message supports only shrink from factor zeros); the accessors then
// throw std::domain_error with `impossible_evidence_message`, the same
// per-query semantics as VE and the junction tree.
//
// Thread safety: all accessors are const and safe to call concurrently
// once the constructor returns (marginals and bounds are extracted
// eagerly). The object holds a reference to the network — the network
// must outlive it and must not be mutated while it is in use.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bayesnet/network.hpp"
#include "core/tolerance.hpp"
#include "prob/discrete.hpp"

namespace sysuq::bayesnet {

/// A posterior point estimate plus a certified interval that contains
/// the true posterior: lo[i] <= P(v = i | e) <= hi[i] for every state.
struct BoundedPosterior {
  /// The BP marginal estimate (default: a trivial one-state mass, so
  /// the struct is default-constructible for container use).
  prob::Categorical point = prob::Categorical::delta(0, 1);
  std::vector<double> lo;   ///< certified lower bound per state
  std::vector<double> hi;   ///< certified upper bound per state
  bool converged = false;   ///< message passing reached tolerance

  /// Largest per-state interval width, max_i (hi[i] - lo[i]).
  [[nodiscard]] double width() const;

  /// True when every probs[i] lies inside [lo[i], hi[i]] (inclusive,
  /// within `slack` for floating-point edges).
  [[nodiscard]] bool contains(std::span<const double> probs,
                              double slack = tolerance::kTiny) const;
};

class LoopyBP {
 public:
  struct Options {
    /// Hard cap on flooding iterations (>= 1).
    std::size_t max_iterations = 500;
    /// Damping factor in [0, 1): m' = (1-damping)*update + damping*m.
    /// 0 is pure Jacobi; raise toward 0.5 on oscillating graphs.
    double damping = 0.0;
    /// Convergence threshold on the max absolute (undamped) message
    /// delta per iteration; must be > 0.
    double tolerance = sysuq::tolerance::kBpMessageDelta;
    /// Blanket configurations enumerated exactly for the convexity box
    /// before falling back to the per-factor relaxation (>= 1).
    std::size_t max_blanket_configs = 4096;
  };

  /// Runs message passing and bound extraction for `net` under
  /// `evidence`, certifying every unobserved variable, or only
  /// `certify_only` when given (see the file comment). Throws
  /// std::out_of_range for unknown evidence ids or states and an unknown
  /// `certify_only`; evidence with probability zero surfaces as
  /// std::domain_error from the posterior accessors.
  explicit LoopyBP(const BayesianNetwork& net, const Evidence& evidence = {});
  LoopyBP(const BayesianNetwork& net, const Evidence& evidence,
          Options options,
          std::optional<VariableId> certify_only = std::nullopt);

  [[nodiscard]] const BayesianNetwork& network() const { return net_; }
  [[nodiscard]] const Evidence& evidence() const { return evidence_; }

  /// Bounded posterior of `v` (an observed variable returns its delta
  /// with a zero-width interval; one this run did not certify, its point
  /// in [0, 1]). Throws std::domain_error with
  /// `impossible_evidence_message` if P(evidence) = 0.
  [[nodiscard]] const BoundedPosterior& query(VariableId v) const;

  /// All bounded posteriors, indexed by VariableId. Throws like
  /// `query` on impossible evidence.
  [[nodiscard]] const std::vector<BoundedPosterior>& all_marginals() const;

  // --- run diagnostics, for explain()/obs/benches ---

  /// True when the last residual fell below Options::tolerance before
  /// the iteration cap.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Flooding iterations actually run.
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  /// Max absolute undamped message delta of the final iteration.
  [[nodiscard]] double final_residual() const { return final_residual_; }
  /// The damping factor this run used (Options::damping).
  [[nodiscard]] double damping() const { return options_.damping; }
  /// The one variable this run certified; std::nullopt when it
  /// certified every unobserved variable.
  [[nodiscard]] std::optional<VariableId> certify_only() const {
    return certify_only_;
  }
  /// True when query(v) is a certificate or throws: v is observed, this
  /// run certified it, or the evidence is impossible. False for an
  /// unobserved variable a `certify_only` run left at [0, 1].
  [[nodiscard]] bool certified(VariableId v) const;
  /// Largest interval width over the certified unobserved variables (0
  /// when the evidence is impossible).
  [[nodiscard]] double max_bound_width() const { return max_bound_width_; }
  /// True when the evidence-reduced factor graph is acyclic (BP exact).
  [[nodiscard]] bool acyclic() const { return acyclic_; }
  /// The fixed message schedule's name ("flooding").
  [[nodiscard]] static const char* schedule() { return "flooding"; }
  /// Wall seconds the constructor spent in message passing + bounds.
  [[nodiscard]] double build_seconds() const { return build_seconds_; }
  /// Scratch-arena bytes live at the run's peak. Always 0: a run keeps
  /// its messages in its own buffers and never touches the per-thread
  /// scratch arena. Kept so explain() and benches report every backend
  /// alike.
  [[nodiscard]] std::size_t arena_high_water_bytes() const { return 0; }

 private:
  // The evidence-reduced factor graph and its messages. It lives only
  // while the constructor runs: a finished run keeps its marginals and
  // diagnostics, which is all the accessors read.
  struct FactorGraph;

  const BayesianNetwork& net_;
  Evidence evidence_;
  Options options_;
  std::optional<VariableId> certify_only_;
  std::vector<BoundedPosterior> marginals_;  // one per variable
  bool impossible_ = false;
  bool converged_ = false;
  bool acyclic_ = false;
  std::size_t iterations_ = 0;
  double final_residual_ = 0.0;
  double max_bound_width_ = 0.0;
  double build_seconds_ = 0.0;

  void build_factor_graph(FactorGraph& g);
  void run_message_passing(FactorGraph& g);
  void extract_marginals(const FactorGraph& g);
  void certify_bounds(FactorGraph& g);
  [[noreturn]] void throw_impossible() const;
};

}  // namespace sysuq::bayesnet
