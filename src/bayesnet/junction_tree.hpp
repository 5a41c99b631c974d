// Junction-tree (clique-tree) exact inference: one calibration answers
// every marginal under one evidence assignment.
//
// Relationship to the engine's variable elimination (VE): same
// exact-inference contract and identical impossible-evidence error
// semantics, but a different cost profile. VE answers one query per
// elimination run; a JunctionTree pays one two-phase message pass
// (collect + distribute over the clique tree) and then reads *all*
// posterior marginals and P(e) off the calibrated beliefs. That is the right trade for the library's dominant workloads
// — fta::diagnose_top_event, evidential networks, perception::BnFusion —
// which issue many queries against the same network and evidence.
//
// A tree has two halves (Lauritzen & Spiegelhalter 1988):
//
// * `JunctionTreeStructure` — compiled once from an elimination ordering
//   and the states of the variables it omits:
//    1. elimination cliques: the step scopes of `simulate_elimination`
//       replaying the ordering with `keep = {}`; a step one variable
//       smaller than an elimination-tree child joins that child's clique,
//       the rest are the maximal cliques;
//    2. clique tree: the elimination tree over those cliques (Blair &
//       Peyton 1993), other components' roots joined to the root, and
//       each separator's index map into its two cliques;
//    3. the clique each variable reads its marginal from (its smallest);
//    4. potentials: every CPT is multiplied into the clique of its
//       earliest-eliminated variable, once. A CPT holding an omitted
//       variable is first reduced by the omitted states
//       (`Factor::reduce(evidence)`); a wholly omitted family's one entry
//       is a constant factor of P(e);
//    5. zeros (Jensen & Andersen 1990): a boolean collect marks a cell
//       *dead* when its potential is 0 or no *live* cell of a child sums
//       onto its separator cell. Evidence only adds zeros, so a dead cell
//       is 0 under every assignment; the separators' index maps keep only
//       live cells, as (cell, separator cell) pairs;
//    6. the evidence-free collect: each clique's belief after collect,
//       its normalized collect message and that message's log-normalizer
//       (the root's: the log of its total). A subtree holding no spanned
//       evidence sends this message under every assignment. A zero total
//       means the omitted states are impossible; spanned evidence only
//       adds zeros, so every calibration would meet one, and the
//       structure records P(e) = 0 for all of them.
//   The variables the ordering eliminates are the ones the structure
//   *spans*; the others are *omitted*, and every calibration must observe
//   them at the states the structure was compiled with.
//
// * `JunctionTree` — one calibration of a structure under one evidence
//   assignment, numeric passes only: enter the evidence, collect toward
//   the root, distribute back (Hugin division by the collect message,
//   0/0 = 0, so exact zeros stay exact), read the marginals. Collect
//   recomputes only the cliques on the paths from the spanned evidence's
//   reader cliques to the root. A clique off those paths starts from its
//   stored belief and sends its stored message and log-normalizer. A
//   path clique with a path child is rebuilt from its potential and
//   receives every child's message, stored or fresh, where the full pass
//   sends it; one without a path child starts from its stored belief.
//   The indicators enter before the pass, and log P(e) sums the
//   log-normalizers in clique order: the arithmetic and its order are
//   those of a collect over every clique, so every answer is
//   bit-identical to one. Collect and distribute skip dead cells: each
//   holds 0.0 wherever they would read it, so the results are those of a
//   pass over every cell, bit for bit. Messages are normalized as they flow
//   and the log-normalizers summed in clique order, so P(e) is available
//   in log space without underflow. Evidence enters one way: on a spanned
//   variable, as a 0/1 indicator in the clique it reads its marginal
//   from. Evidence on an omitted variable is already compiled in, so the
//   calibration only checks it, and takes every message from the compile.
//
// `JunctionTree(net, evidence)` compiles a structure from the min-fill
// ordering of the evidence keys (omitting exactly the observed
// variables, at their observed states), then calibrates it once; it spans
// no observed variable, so that calibration runs no collect of its own.
// `InferenceEngine` compiles one structure per network from its
// network-wide plan, which spans every variable, and calibrates it per
// assignment. A calibrated tree keeps its marginals and shares the
// structure's clique list; it keeps none of the structure's tables, so a
// structure compiled for one calibration is freed once it is built.
//
// Impossible evidence (P(e) = 0) is detected during collect; the tree
// then reports `log_evidence_probability() == -inf` and every marginal
// accessor throws std::domain_error with `impossible_evidence_message` —
// the same per-query semantics as the other engines.
//
// Thread safety: a structure is immutable once compiled and may back any
// number of concurrent calibrations; a calibrated tree's accessors are
// const and safe to call concurrently once the constructor returns
// (marginals are extracted eagerly). Both hold a reference to the network
// — the network must outlive them and must not be mutated while they are
// in use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bayesnet/network.hpp"
#include "bayesnet/ordering.hpp"
#include "prob/discrete.hpp"

namespace sysuq::bayesnet {

/// The evidence-independent half of a junction tree, compiled from an
/// elimination ordering (see the file comment). Opens a
/// `bayesnet.jt.compile` span and counts `bayesnet.jt.compiles`.
class JunctionTreeStructure {
 public:
  /// Compiles the clique tree that eliminating `ordering.order` induces.
  /// Every variable the order does not name is omitted and fixed at its
  /// state in `evidence`; evidence on the variables it names is ignored.
  /// Throws std::invalid_argument when the order names an unknown
  /// variable or one variable twice, or when an omitted variable is not
  /// observed, and std::out_of_range when an omitted state is past its
  /// variable's cardinality.
  JunctionTreeStructure(const BayesianNetwork& net,
                        const EliminationOrdering& ordering,
                        const Evidence& evidence = {});

  [[nodiscard]] const BayesianNetwork& network() const { return net_; }

  /// Maximal cliques of the triangulation, sorted scopes, in
  /// elimination order (where each clique's first step falls).
  [[nodiscard]] const std::vector<std::vector<VariableId>>& cliques() const {
    return *cliques_;
  }
  /// Variables in the largest clique (treewidth + 1 of the triangulation).
  [[nodiscard]] std::size_t max_clique_size() const { return max_clique_size_; }
  /// Cells over every clique table.
  [[nodiscard]] std::size_t cells() const { return potentials_.size(); }
  /// Cells that may be nonzero under some evidence (compile step 5): the
  /// ones collect and distribute visit.
  [[nodiscard]] std::size_t live_cells() const { return live_cells_; }

 private:
  friend class JunctionTree;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// A live cell of a clique and the cell of a separator it maps to.
  struct Link {
    std::uint32_t cell;
    std::uint32_t sep;
  };
  /// One clique's table in the flat belief array, and its separator with
  /// the parent in the flat separator array. The separator's index maps
  /// list live cells only, in cell order.
  struct Clique {
    std::size_t offset = 0;  ///< first cell in the belief array
    std::size_t size = 0;    ///< cells
    std::size_t parent = kNone;
    std::size_t sep_offset = 0;
    std::size_t sep_size = 1;
    std::vector<Link> to_sep;         ///< own live cell -> separator cell
    std::vector<Link> parent_to_sep;  ///< parent's live cell -> separator cell
  };
  /// Where a spanned variable reads its marginal and takes its indicator:
  /// a clique and the variable's stride and cardinality in it.
  struct Reader {
    std::size_t clique = kNone;
    std::size_t stride = 0;
    std::size_t card = 0;
  };
  /// How a calibration's collect treats a clique (see the file comment).
  enum class Mark : std::uint8_t {
    kReused,   ///< off the evidence's paths: stored belief and message
    kEntered,  ///< on a path, no path child: stored belief, evidence, resent
    kRebuilt,  ///< a path child: rebuilt from its potential, resent
  };

  /// Collects toward the root (parents-first order reversed) over
  /// `belief` (flat by clique) into `sep` (flat by separator) and each
  /// clique's log-normalizer into `log_norms` (by clique). A kReused
  /// clique's message is already in `sep`; it multiplies in only where
  /// the parent is kRebuilt. Returns false at the first zero total (the
  /// evidence is impossible).
  bool collect(double* belief, double* sep, double* log_norms, const Mark* mark) const;

  const BayesianNetwork& net_;
  std::shared_ptr<const std::vector<std::vector<VariableId>>> cliques_;
  std::size_t max_clique_size_ = 0;
  std::vector<Clique> tree_;         ///< by clique index
  std::vector<std::size_t> order_;   ///< parents first; order_[0] is the root
  std::vector<double> potentials_;   ///< CPT products, flat by clique
  // Step 6, read only while log_constant_ is finite.
  std::vector<double> collected_;    ///< beliefs after collect, flat by clique
  std::vector<double> messages_;     ///< collect messages, flat by separator
  std::vector<double> log_norms_;    ///< their log-normalizers, by clique
  std::size_t live_cells_ = 0;
  Evidence omitted_;                 ///< the omitted variables' states
  /// log of the wholly omitted families' entries; -inf when they or
  /// step 6's collect meet a zero (the omitted states are impossible).
  double log_constant_ = 0.0;
  std::vector<Reader> reader_;       ///< by variable; kNone clique when omitted
  std::size_t sep_cells_ = 0;
  std::size_t max_sep_size_ = 0;
};

class JunctionTree {
 public:
  /// Builds the clique tree for `net` and calibrates it under `evidence`,
  /// triangulating with the min-fill ordering of the evidence keys.
  /// Throws std::out_of_range for unknown evidence ids; evidence with
  /// probability zero is absorbed silently here and surfaces as
  /// std::domain_error from the marginal accessors.
  explicit JunctionTree(const BayesianNetwork& net, const Evidence& evidence = {});

  /// Calibrates a compiled `structure` under `evidence`. Throws
  /// std::out_of_range for unknown evidence ids or states, and
  /// std::invalid_argument when a variable the structure omits is not
  /// observed at the state it was compiled with.
  JunctionTree(const JunctionTreeStructure& structure, const Evidence& evidence);

  /// Posterior marginal P(v | evidence) off the calibrated beliefs; an
  /// observed variable returns its delta. Throws std::domain_error with
  /// `impossible_evidence_message` if P(evidence) = 0.
  [[nodiscard]] prob::Categorical query(VariableId v) const;

  /// All posterior marginals, indexed by VariableId (observed variables
  /// hold their deltas). Throws like `query` on impossible evidence.
  [[nodiscard]] const std::vector<prob::Categorical>& all_marginals() const;

  /// log P(evidence); -infinity when the evidence is impossible.
  [[nodiscard]] double log_evidence_probability() const { return log_evidence_; }

  /// P(evidence); 0 when the evidence is impossible.
  [[nodiscard]] double evidence_probability() const;

  // --- structure, for tests, benches and the obs instruments ---

  /// The structure's cliques (see JunctionTreeStructure::cliques).
  [[nodiscard]] const std::vector<std::vector<VariableId>>& cliques() const {
    return *cliques_;
  }
  [[nodiscard]] std::size_t clique_count() const { return cliques_->size(); }
  /// Variables in the largest clique (treewidth + 1 of the triangulation).
  [[nodiscard]] std::size_t max_clique_size() const { return max_clique_size_; }
  /// The structure's clique table cells, and those collect and distribute
  /// visit (see JunctionTreeStructure::live_cells).
  [[nodiscard]] std::size_t cells() const { return cells_; }
  [[nodiscard]] std::size_t live_cells() const { return live_cells_; }
  /// Wall seconds this tree's calibration took (compiling the structure
  /// and computing the ordering excluded). Measured directly (not via
  /// obs), so `InferenceEngine::explain` can attribute calibration cost
  /// in every build mode.
  [[nodiscard]] double calibration_seconds() const { return calibration_seconds_; }
  /// Scratch-arena bytes live at the calibration's peak (captured before
  /// the final reset).
  [[nodiscard]] std::size_t arena_high_water_bytes() const {
    return arena_high_water_;
  }

 private:
  const BayesianNetwork& net_;
  Evidence evidence_;
  std::shared_ptr<const std::vector<std::vector<VariableId>>> cliques_;
  std::size_t max_clique_size_ = 0;
  std::size_t cells_ = 0;
  std::size_t live_cells_ = 0;
  std::vector<prob::Categorical> marginals_;  // one per variable
  double log_evidence_ = 0.0;
  bool impossible_ = false;
  double calibration_seconds_ = 0.0;
  std::size_t arena_high_water_ = 0;

  void calibrate(const JunctionTreeStructure& s);
  [[noreturn]] void throw_impossible() const;
};

}  // namespace sysuq::bayesnet
