// The production inference engine: batched, multithreaded posterior
// queries over one Bayesian network, answered by variable elimination
// (VE), calibrated junction trees (JT) or loopy belief propagation with
// certified bounds (BP).
//
// Contract: VE and JT answer the exact posterior P(query | evidence) that
// the enumeration oracle of bayesnet/inference.hpp computes by brute
// force, with the same error semantics (std::out_of_range for unknown
// evidence ids or states, std::domain_error with
// `impossible_evidence_message` when P(e) = 0). How the engine gets there:
//  * VE views the network's CPT tables in place, and child lists are
//    built once, at construction;
//  * a posterior or `joint` VE run multiplies only the CPTs that
//    Bayes-ball (Shachter 1998) marks requisite for its kept variables
//    given the observed ones, and eliminates the engine's plan filtered
//    to them. It multiplies the ancestral CPTs of its kept and
//    observed variables instead when an observed variable outside the
//    requisite set has its state impossible under some parent row, and
//    always for P(e), so P(e) = 0 still yields zero mass;
//  * one network-wide plan, `compute_elimination_order(net, {}, {})`,
//    computed once, on first use. When its largest table is within
//    `max_exact_table_cells`, it is the engine's only elimination plan:
//    every VE run filters it (an observed variable's bucket is empty
//    after evidence reduction, so no step runs for it), the kAuto guard
//    reads its largest table, explain() reports its figures, and one
//    junction-tree structure compiled from it, spanning every variable,
//    serves every calibration. Otherwise each evidence *keys* signature
//    (any values, any query variable) runs min-fill once, and each
//    calibration compiles a tree from its signature's plan;
//  * three memos (bayesnet/memo.hpp) hold the reusable work: the
//    per-signature min-fill plans of an engine without a network plan,
//    and calibrated junction trees and BP runs per full evidence
//    *assignment*;
//  * `query_batch` fans a vector of (query, evidence) pairs across a
//    fixed thread pool; results are deterministic and independent of the
//    thread count because every query's slot and arithmetic are fixed up
//    front;
//  * `sample_batch` runs likelihood weighting with a per-query RNG stream
//    derived from (seed, query index), so a fixed seed gives byte-identical
//    posteriors regardless of scheduling.
//
// Routing: `query`, `explain`, `all_marginals`, `query_batch` (once per
// evidence assignment), `evidence_probability`,
// `log_evidence_probability` and `joint` all ask one rule which backend
// answers them:
//  1. Evidence ids and states are validated (std::out_of_range).
//  2. An observed query variable answers with its evidence delta.
//  3. A fixed backend answers what it can and hands the rest to VE:
//     kVariableElimination answers everything, kJunctionTree everything
//     but `joint`, kLoopyBP everything but P(e) and `joint`. A
//     kJunctionTree call looks up no signature plan while the network's
//     compiled tree exists.
//  4. kAuto sends `all_marginals`, and a batch group once it holds
//     `jt_batch_threshold` distinct query variables, to JT; everything
//     else goes to VE. Every call first checks the largest elimination
//     clique of the plan exact inference would run against
//     `max_exact_table_cells`: the network plan, which fits by
//     construction, or without one the signature's memoized min-fill
//     plan. Over the ceiling, posteriors escalate to BP
//     (ContractViolation when `enable_bp` is false) and P(e) and `joint`,
//     which BP cannot answer, throw ContractViolation naming the cell
//     count and the ceiling. Within it, VE runs on the guard's plan, and
//     JT on the network's tree or on a tree compiled from that plan.
// `query_bounded` and `all_marginals_bounded` always run BP.
//
// Thread safety: all query methods are const and safe to call from
// multiple threads concurrently; the memos are internally locked. The
// engine holds a reference to the network — the network must outlive
// the engine and must not be mutated while queries run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/junction_tree.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/memo.hpp"
#include "bayesnet/network.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "prob/discrete.hpp"
#include "prob/information.hpp"

namespace sysuq::bayesnet {

/// One (query, evidence) pair of a batch.
struct QuerySpec {
  VariableId query = 0;
  Evidence evidence;
};

/// Which backend answers engine queries.
enum class Backend {
  kVariableElimination,  ///< one elimination run per query (the PR-1 path)
  kJunctionTree,         ///< every query reads a calibrated clique tree
  kAuto,  ///< VE per query; JT for batch groups with many distinct queries;
          ///< escalates to loopy BP when the exact plan is infeasible
  kLoopyBP,  ///< approximate loopy belief propagation with certified bounds
};

class InferenceEngine {
 public:
  struct Options {
    /// Worker threads for the batch APIs. 0 = hardware concurrency.
    std::size_t threads = 0;
    Backend backend = Backend::kAuto;
    /// Under kAuto, a batch group switches to the junction tree once it
    /// holds at least this many *distinct* query variables under one
    /// evidence assignment (one calibration then amortizes across them).
    std::size_t jt_batch_threshold = 8;
    /// Under kAuto, the feasibility ceiling for exact inference: when
    /// the largest elimination clique of the plan exact inference would
    /// run — the largest product a VE step sums over, and the junction
    /// tree's largest clique table — exceeds this many cells, a
    /// posterior escalates to loopy BP instead of running it — or throws a
    /// ContractViolation when `enable_bp` is false, as P(e) and `joint`
    /// always do (BP cannot answer them). The default is 2^24 cells
    /// (128 MiB of doubles per table). Under every backend it also
    /// decides, once, whether the network-wide plan is used (see the file
    /// comment).
    std::size_t max_exact_table_cells = std::size_t{1} << 24;
    /// Permits the kAuto escalation to loopy BP. When false, a query
    /// whose exact plan exceeds `max_exact_table_cells` fails fast with
    /// a ContractViolation instead of silently approximating.
    bool enable_bp = true;
  };

  /// One cache's per-engine window; the process-wide aggregates are the
  /// `bayesnet.engine.ordering_cache.*`, `bayesnet.{jt,bp}.cache.*`
  /// instruments.
  using CacheStats = bayesnet::CacheStats;

  explicit InferenceEngine(const BayesianNetwork& net);
  InferenceEngine(const BayesianNetwork& net, Options options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  [[nodiscard]] const BayesianNetwork& network() const { return net_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Exact posterior P(query | evidence). Throws std::domain_error with
  /// `impossible_evidence_message` if P(evidence) = 0.
  [[nodiscard]] prob::Categorical query(VariableId query,
                                        const Evidence& evidence = {}) const;

  /// EXPLAIN ANALYZE for one query: answers it on the same code path as
  /// `query` and returns the full cost attribution — backend chosen and
  /// why, the elimination plan VE executes (per-step factor widths and
  /// table sizes over the CPTs the run multiplies, so a variable outside
  /// them gets no step) or the calibrated tree's clique structure,
  /// ordering/JT cache hit flags, the scratch-arena high-water mark, and
  /// wall seconds per stage. Throws exactly like `query` (unknown id, impossible
  /// evidence). Structure fields are deterministic; see
  /// `QueryProfile::zero_costs` for byte-reproducible rendering.
  [[nodiscard]] QueryProfile explain(VariableId query,
                                     const Evidence& evidence = {}) const;

  /// Posteriors of *every* variable given `evidence`, indexed by
  /// VariableId (observed variables hold their deltas): one calibrated
  /// message pass under kJunctionTree and kAuto, one BP run under
  /// kLoopyBP, a `query` loop under kVariableElimination. Throws like
  /// `query` on impossible evidence.
  [[nodiscard]] std::vector<prob::Categorical> all_marginals(
      const Evidence& evidence = {}) const;

  /// Bounded posterior of one query via loopy BP: the point estimate
  /// plus a certified interval containing the true P(query | evidence).
  /// Available under every backend; throws like `query` on impossible
  /// evidence. The BP run is cached by evidence assignment. A fresh one
  /// certifies `query` alone (`LoopyBP`'s `certify_only`); a cached run
  /// that did not certify `query` is rebuilt certifying every variable
  /// and replaces the entry, so an assignment is built at most twice.
  [[nodiscard]] BoundedPosterior query_bounded(
      VariableId query, const Evidence& evidence = {}) const;

  /// Bounded posteriors of every variable via loopy BP, indexed by
  /// VariableId (observed variables hold zero-width deltas), from a run
  /// that certified every variable.
  [[nodiscard]] std::vector<BoundedPosterior> all_marginals_bounded(
      const Evidence& evidence = {}) const;

  /// Probability of the evidence, P(e).
  [[nodiscard]] double evidence_probability(const Evidence& evidence) const;

  /// log P(e); -infinity when the evidence is impossible (no throw).
  [[nodiscard]] double log_evidence_probability(const Evidence& evidence) const;

  /// Exact joint of two distinct unobserved variables given evidence.
  [[nodiscard]] prob::JointTable joint(VariableId a, VariableId b,
                                       const Evidence& evidence = {}) const;

  /// Exact posteriors for a batch of queries, fanned across the thread
  /// pool. result[i] corresponds to batch[i]; results are byte-identical
  /// for any thread count. The first failing query's exception (e.g.
  /// impossible evidence) is rethrown after the batch finishes.
  [[nodiscard]] std::vector<prob::Categorical> query_batch(
      const std::vector<QuerySpec>& batch) const;

  /// Approximate posteriors by likelihood weighting, `samples` draws per
  /// query. Query i draws from an RNG stream derived from (seed, i), so a
  /// fixed seed yields byte-identical results for any thread count.
  [[nodiscard]] std::vector<prob::Categorical> sample_batch(
      const std::vector<QuerySpec>& batch, std::size_t samples,
      std::uint64_t seed) const;

  /// Ordering-cache statistics since construction / the last clear /
  /// the last reset_cache_stats(). The cache holds the per-signature
  /// min-fill plans of an engine without a network plan, looked up by VE,
  /// the kAuto guard and trees compiled per signature. The network-wide
  /// plan is held outside it, so an engine with one reads zero lookups
  /// and zero entries.
  [[nodiscard]] CacheStats cache_stats() const { return orderings_.stats(); }

  /// Calibrated-tree cache statistics (same windowing rules). Unlike the
  /// ordering cache, entries here are keyed by the *full* evidence
  /// assignment — two evidence maps sharing keys but differing in any
  /// value never share a calibrated tree.
  [[nodiscard]] CacheStats jt_cache_stats() const { return trees_.stats(); }

  /// Loopy-BP run cache statistics (same windowing rules; keyed by the
  /// full evidence assignment like the junction-tree cache). A run
  /// rebuilt because the cached one did not certify what a call reads
  /// counts as a miss and replaces the entry.
  [[nodiscard]] CacheStats bp_cache_stats() const { return bp_runs_.stats(); }

  /// Zeroes the hit/miss counters of all three caches without dropping
  /// cached plans, trees or BP runs, so long-running batch loops can
  /// window their stats per batch. The process-wide obs counters are
  /// unaffected (they aggregate forever).
  void reset_cache_stats();

  /// Drops every cached plan, calibrated tree and BP run. The
  /// network-wide plan and compiled tree stay: they depend only on the
  /// network.
  void clear_cache();

 private:
  class Pool;
  struct Slots;

  /// The backend that answers a call; kDelta is an observed query
  /// variable's evidence delta.
  enum class Route { kDelta, kVariableElimination, kJunctionTree, kLoopyBP };
  /// route()'s answer. `ordering` is ordering_for()'s plan, set for every
  /// VE route and every exact kAuto route; null otherwise.
  struct Plan {
    Route route = Route::kDelta;
    std::shared_ptr<const EliminationOrdering> ordering;
  };
  /// What a call asks route() for.
  struct Ask {
    enum Kind { kQuery, kAllMarginals, kBatchGroup, kEvidence, kJoint };
    Kind kind;
    VariableId query = 0;      ///< kQuery: the query variable
    std::size_t distinct = 0;  ///< kBatchGroup: distinct query variables
  };

  // Key: sorted evidence keys; only an engine without a network plan
  // fills this memo. The cached ordering eliminates *every* unobserved
  // variable; a VE run skips its kept variables and those outside its
  // CPTs at execution time, so one plan serves all queries sharing an
  // evidence signature. The kAuto guard reads it unfiltered, and so does
  // a tree compiled per signature.
  using OrderingKey = std::vector<VariableId>;
  // Key: the full evidence assignment (sorted key/value pairs). Exact —
  // calibrated beliefs depend on evidence values, so signatures that a
  // lossy hash would conflate stay distinct by construction.
  using TreeKey = std::vector<std::pair<VariableId, std::size_t>>;

  const BayesianNetwork& net_;              // sysuq-thread-confined(init)
  Options options_;                         // sysuq-thread-confined(init)
  std::size_t threads_;                     // sysuq-thread-confined(init)
  // Each variable's children, ascending.  sysuq-thread-confined(init)
  std::vector<std::vector<VariableId>> children_;
  std::unique_ptr<Pool> pool_;              // sysuq-thread-confined(init)

  // The memos and the lazily built network plan, tree and state table
  // lock internally; see bayesnet/memo.hpp. The lazy values depend only
  // on the network, so clear_cache() keeps them.
  mutable Lazy<std::shared_ptr<const EliminationOrdering>> network_plan_;
  mutable Lazy<std::shared_ptr<const JunctionTreeStructure>> network_tree_;
  mutable Lazy<std::vector<std::vector<char>>> always_possible_;
  mutable Memo<OrderingKey, std::shared_ptr<const EliminationOrdering>>
      orderings_{"bayesnet.engine.ordering_cache"};
  mutable Memo<TreeKey, std::shared_ptr<const JunctionTree>> trees_{
      "bayesnet.jt.cache"};
  mutable Memo<TreeKey, std::shared_ptr<const LoopyBP>> bp_runs_{
      "bayesnet.bp.cache"};
  // Arena bytes live at the peak of the most recent VE elimination on
  // any thread (captured before the final arena reset). Relaxed: a
  // diagnostic figure for explain(), not synchronization.
  mutable std::atomic<std::size_t> last_ve_arena_high_water_{0};

  /// The routing rule of the class comment, throws included. `reason`,
  /// when given, receives the one-line why explain() prints for a query.
  [[nodiscard]] Plan route(const Ask& ask, const Evidence& evidence,
                           std::string* reason = nullptr) const;
  /// The plan VE runs and the kAuto guard reads: network_plan() while
  /// there is one, else the signature's min-fill plan, memoized.
  [[nodiscard]] std::shared_ptr<const EliminationOrdering> ordering_for(
      const Evidence& evidence) const;
  /// `compute_elimination_order(net, {}, {})`, computed once, on first
  /// use; null when its largest table exceeds `max_exact_table_cells`.
  [[nodiscard]] std::shared_ptr<const EliminationOrdering> network_plan() const;
  /// The structure compiled from network_plan(), once, on first use;
  /// null when there is no network plan.
  [[nodiscard]] std::shared_ptr<const JunctionTreeStructure> network_tree() const;
  /// The calibrated tree for `evidence`, built on a miss and memoized: a
  /// calibration of network_tree(), or, without one, of a structure
  /// compiled from `ordering` (the signature's cached one when null).
  [[nodiscard]] std::shared_ptr<const JunctionTree> calibrated_tree_for(
      const Evidence& evidence,
      const std::shared_ptr<const EliminationOrdering>& ordering) const;
  /// What a BP run must certify to serve a call: nothing (point reads),
  /// one variable (`query_bounded`), or every variable
  /// (`all_marginals_bounded`, `explain`).
  enum class Certify { kNothing, kOne, kAll };
  /// The loopy-BP run for `evidence`, memoized. A cached run serves the
  /// call when it certifies what `need` asks (`kOne`: variable `v`). A
  /// miss builds a run certifying `v` alone for `kOne` and every variable
  /// otherwise; a cached run that falls short is rebuilt certifying every
  /// variable and overwritten. A run that fails to converge undamped is
  /// retried once at damping 0.5 (deterministic), keeping whichever
  /// converged.
  [[nodiscard]] std::shared_ptr<const LoopyBP> bp_for(
      const Evidence& evidence, Certify need = Certify::kNothing,
      VariableId v = 0) const;
  /// `[v][s]`: state s of v has positive probability under every parent
  /// row. Read off the network's CPT tables on first use.
  [[nodiscard]] const std::vector<std::vector<char>>& always_possible() const;
  /// What one VE run executes: the CPTs it multiplies, `cpts`
  /// (ascending), and the plan's order filtered to them, minus `keep`. For a non-empty `keep` the CPTs are the requisite ones,
  /// those Bayes-ball (Shachter 1998) marks on top: summed out, the
  /// others leave a constant factor, which normalization divides out.
  /// That factor is positive, so P(e) = 0 exactly when the run's mass is
  /// 0, unless an observed variable left out has its observed state
  /// impossible under some parent row. The run then multiplies the
  /// ancestral CPTs of `keep` and the observed variables, as it does for
  /// P(e) (`keep = {}`): any other CPT is barren, one when summed over its
  /// child (Shachter 1986), and every observed variable's ancestors stay
  /// in, so impossible evidence yields zero mass.
  struct VeRun {
    std::vector<VariableId> cpts;
    std::vector<VariableId> order;
  };
  /// The one helper that computes the set; VE and explain() both use it.
  /// `keep` ids must be valid and unobserved.
  [[nodiscard]] VeRun ve_run(const std::vector<VariableId>& keep,
                             const Evidence& evidence,
                             const EliminationOrdering& ordering) const;
  /// Marks in `in` (all zero) the CPTs Bayes-ball finds requisite for
  /// `keep` given `evidence`; false, leaving `in` untouched, when an
  /// observed variable outside them calls for the ancestral set.
  [[nodiscard]] bool mark_requisite(const std::vector<VariableId>& keep,
                                    const Evidence& evidence,
                                    std::vector<char>& in) const;
  /// Scaled elimination of ve_run()'s plan over views of the network's
  /// CPT tables (no per-query deep copies); evidence reductions and all
  /// intermediates live in the per-thread scratch arena. The log
  /// normalizer lets the impossible-evidence checks distinguish genuine
  /// zero mass from deep-chain underflow.
  [[nodiscard]] kernels::ScaledFactor eliminate_all_but(
      const std::vector<VariableId>& keep, const Evidence& evidence,
      const EliminationOrdering& ordering) const;
  [[nodiscard]] prob::Categorical query_ve(VariableId query, const Evidence& evidence,
                                           const EliminationOrdering& ordering) const;
  /// Runs `unit(0..units-1)` across the pool under the caller's trace
  /// context, then rethrows the first failed slot's exception or returns
  /// every slot's posterior in slot order.
  [[nodiscard]] std::vector<prob::Categorical> run_units(
      Slots& slots, std::size_t units,
      const std::function<void(std::size_t)>& unit) const;
};

}  // namespace sysuq::bayesnet
