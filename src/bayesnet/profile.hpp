// Query profiling: the structured result of `InferenceEngine::explain`.
//
// A `QueryProfile` is the engine's EXPLAIN ANALYZE — it answers the
// query *and* attributes its cost: which backend ran and why, the
// elimination plan step by step (factor widths and table sizes) or the
// calibrated tree's clique structure, whether the plan/tree came out of
// a cache, the scratch-arena high-water mark, and wall time per stage.
// Rendered two ways: `to_json()` (one line, fixed key order) for
// manifests and goldens, `to_plan()` for humans.
//
// Structure fields are deterministic for a fixed network, query and
// backend; the wall-clock and arena figures are measured and vary run
// to run — `zero_costs()` blanks exactly those, which is what the CLI's
// `--deterministic` flag and the byte-exact golden tests use.
//
// This header is plain data over the bayesnet layer: it works
// identically under `-DSYSUQ_OBS=OFF` (profiling is pull-based and
// costs nothing unless `explain` is called, so there is nothing to
// compile out).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/network.hpp"

namespace sysuq::bayesnet {

/// One step of a variable-elimination run: the product factor summed
/// over when `variable` is eliminated (one fused pass; the product is
/// not stored); its width is the scope minus the eliminated variable.
struct EliminationStepProfile {
  VariableId variable = 0;
  std::string name;               ///< variable name
  std::vector<VariableId> scope;  ///< the product factor's scope, sorted
  /// Cells of the product factor (cost of the step), saturating at
  /// SIZE_MAX like `EliminationOrdering::max_table_cells`.
  std::size_t table_cells = 0;
};

/// One timed stage of answering a query (plan, execute, ...).
struct StageProfile {
  std::string stage;
  double seconds = 0.0;
};

/// The full cost attribution of one query. Produced by
/// `InferenceEngine::explain`; see the class comment for determinism.
struct QueryProfile {
  std::string query;  ///< query variable name
  std::vector<std::pair<std::string, std::string>> evidence;  ///< (var, state) names
  /// "variable_elimination" | "junction_tree" | "loopy_bp" | "evidence_delta"
  std::string backend;
  std::string backend_reason;

  // Variable-elimination plan (empty under the other backends).
  // `induced_width` and `fill_edges` describe the whole plan VE filtered,
  // the one the kAuto guard reads: the engine's network-wide plan, or
  // without one the signature's min-fill plan. `ordering_cache_hit` says
  // that plan existed before the call. `steps` is the plan VE ran, over
  // the CPTs it multiplied only (the query's requisite ones, or its
  // ancestral ones), so the width can exceed every listed step's.
  bool ordering_cache_hit = false;
  std::size_t induced_width = 0;
  std::size_t fill_edges = 0;
  std::vector<EliminationStepProfile> steps;

  // Junction-tree plan (empty under the other backends).
  bool jt_cache_hit = false;
  std::vector<std::size_t> clique_sizes;  ///< one per clique, elimination order
  std::size_t max_clique_size = 0;
  std::size_t cells = 0;       ///< clique table cells
  std::size_t live_cells = 0;  ///< of those, the ones the calibration visits
  double calibration_seconds = 0.0;  ///< the tree's build cost (0 when unknown)

  // Loopy-BP plan (empty under the other backends). Structure and
  // convergence figures are deterministic for fixed options; only
  // propagation_seconds is measured.
  bool bp_cache_hit = false;
  std::string schedule;          ///< "flooding"
  std::size_t bp_iterations = 0;
  bool bp_converged = false;
  double bp_damping = 0.0;
  double final_residual = 0.0;   ///< last iteration's max message delta
  double bound_width = 0.0;      ///< largest certified interval width
  double propagation_seconds = 0.0;  ///< the BP run's build cost

  // Measured cost.
  std::size_t arena_high_water_bytes = 0;
  std::vector<StageProfile> stages;
  double total_seconds = 0.0;

  // The answer (explain runs the query, EXPLAIN ANALYZE style).
  std::vector<std::string> states;
  std::vector<double> posterior;

  /// Blanks every measured figure (stage/total/calibration seconds and
  /// the arena high-water mark), keeping the plan; the result renders
  /// byte-identically across runs.
  void zero_costs();

  /// One-line JSON, fixed key order, shortest round-trip doubles.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable plan, one stanza per section.
  [[nodiscard]] std::string to_plan() const;
};

/// The library's one symbolic replay of a variable-elimination run:
/// starting from the network's CPT scopes with `evidence` variables
/// reduced away, each `order` variable not in `keep` is eliminated —
/// every live scope containing it merges into the step's product factor
/// — and the step's scope and table size are recorded. This
/// mirrors the buckets `kernels::eliminate` multiplies out, without
/// touching any factor data; with `keep = {}` the step scopes are the
/// elimination cliques a `JunctionTree` is built from.
///
/// Each live scope waits in the bucket of its earliest-eliminated
/// variable, so a step merges exactly its own bucket and the replay
/// costs O(total scope size), not a scan of every live scope per step.
/// An entry with nothing to merge (a kept, observed, barren or repeated
/// variable) records no step and leaves the other scopes live.
[[nodiscard]] std::vector<EliminationStepProfile> simulate_elimination(
    const BayesianNetwork& net, const Evidence& evidence,
    const std::vector<VariableId>& order, const std::vector<VariableId>& keep);

/// The same replay starting from the CPTs of `cpts` only. `explain`
/// prints this form over the plan VE executes: the CPTs the run
/// multiplies and the signature's order filtered to them, so EXPLAIN
/// lists exactly the steps that ran.
[[nodiscard]] std::vector<EliminationStepProfile> simulate_elimination(
    const BayesianNetwork& net, const Evidence& evidence,
    const std::vector<VariableId>& order, const std::vector<VariableId>& keep,
    const std::vector<VariableId>& cpts);

}  // namespace sysuq::bayesnet
