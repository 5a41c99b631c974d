// Flat strided factor kernels.
//
// Factor product / marginalize / reduce is the hot path under every
// inference backend, and these kernels are the only code that knows how
// a table is reduced by evidence, how two scopes merge and how a table
// is marginalized: the Factor class keeps its safe, owning API and
// forwards each method here, and VE, BP, the junction-tree compile and
// the network's row reads condition a CPT through the one `reduce`.
// Tables are contiguous and addressed through precomputed stride tables,
// so the inner loops touch memory linearly with no per-cell index
// recomputation and no per-cell bounds checks. Scopes are validated once
// at kernel entry, never per cell; a check whose violation would index
// out of bounds (a state past its cardinality, a cardinality mismatch on
// a shared variable, a table size that overflows) throws in every build
// mode, the rest are contracts (SYSUQ_EXPECT).
//
// Layout contract (same as Factor): a table over a sorted scope is
// row-major with the *last* scope variable varying fastest. Because
// scopes are sorted, the fastest-varying dimension of any merged scope
// is also the fastest-varying dimension of each operand that contains
// it — every inner loop is contiguous (stride 1) or a broadcast
// (stride 0), which is what the auto-vectorizer needs.
//
// Intermediate tables live in a bump Arena (bayesnet/arena.hpp); only
// final results are materialized as owning Factors. Scaled elimination
// (per-round renormalization with an accumulated log normalizer) lets
// callers survive deep-evidence underflow without paying repeated
// normalization in the linear hot path.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "bayesnet/arena.hpp"
#include "bayesnet/factor.hpp"
#include "core/contracts.hpp"

namespace sysuq::bayesnet::kernels {

/// Maximum factor rank the kernels accept (stride/counter tables are
/// stack-allocated). A table over this many non-trivial variables could
/// not fit in memory anyway; checked once per kernel call.
inline constexpr std::size_t kMaxRank = 64;

/// True when a * b overflows std::size_t.
// sysuq-lint-allow(contract-coverage): total predicate over any two sizes
[[nodiscard]] bool mul_overflows(std::size_t a, std::size_t b) noexcept;

/// Product of `cards[0..rank)`. Throws std::invalid_argument (`what`) on
/// a zero cardinality or a product that overflows size_t, in every build
/// mode.
[[nodiscard]] std::size_t checked_table_size(const std::size_t* cards,
                                             std::size_t rank,
                                             const char* what);

/// Calls visit(x, j) for each cell x of a row-major table with
/// cardinalities `cards[0..rank)` (last fastest), in order, where j is
/// `base` plus the sum of x's states times `strides`: the cell x reads in
/// a source table (stride 0 where the source lacks the dimension).
/// Adjacent dimensions the source stores contiguously
/// (strides[d - 1] == strides[d] * cards[d], 0 = 0 * c included) merge
/// into one, and the innermost merged dimension runs as a plain loop;
/// the visits and their order are the same as one dimension at a time.
template <class Visit>
void walk(const std::size_t* cards, const std::size_t* strides,
          std::size_t rank, std::size_t base, Visit&& visit) {
  SYSUQ_EXPECT(rank <= kMaxRank, "kernels::walk: rank exceeds kMaxRank");
  std::size_t mcards[kMaxRank], mstrides[kMaxRank], idx[kMaxRank] = {};
  std::size_t merged = 0, size = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    size *= cards[d];
    if (merged > 0 && mstrides[merged - 1] == strides[d] * cards[d]) {
      mcards[merged - 1] *= cards[d];
      mstrides[merged - 1] = strides[d];
    } else {
      mcards[merged] = cards[d];
      mstrides[merged++] = strides[d];
    }
  }
  if (merged == 0) {  // rank 0: the one cell
    mcards[0] = 1;
    mstrides[0] = 0;
    merged = 1;
  }
  const std::size_t run = mcards[merged - 1], step = mstrides[merged - 1];
  for (std::size_t x = 0, j = base; x < size; x += run) {
    for (std::size_t k = 0; k < run; ++k) visit(x + k, j + k * step);
    for (std::size_t d = merged - 1; d-- > 0;) {
      j += mstrides[d];
      if (++idx[d] < mcards[d]) break;
      j -= mstrides[d] * mcards[d];
      idx[d] = 0;
    }
  }
}

/// Non-owning view of a factor table: sorted scope, parallel
/// cardinalities, row-major values (last variable fastest).
struct View {
  const VariableId* scope = nullptr;
  const std::size_t* cards = nullptr;
  const double* values = nullptr;
  std::size_t rank = 0;
  std::size_t size = 0;

  /// True if `v` appears in the (sorted) scope.
  [[nodiscard]] bool contains(VariableId v) const noexcept;
};

/// View of an owning Factor (valid while the Factor lives).
// sysuq-lint-allow(contract-coverage): total over any Factor (its ctor already validated)
[[nodiscard]] View view_of(const Factor& f);

/// The constant-1 scalar view (rank 0). Backed by static storage.
[[nodiscard]] View unit_view() noexcept;

/// Arena-owned table: mutable values plus scope metadata, all allocated
/// from the Arena. Valid until the arena is reset.
struct Table {
  VariableId* scope = nullptr;
  std::size_t* cards = nullptr;
  double* values = nullptr;
  std::size_t rank = 0;
  std::size_t size = 0;

  [[nodiscard]] View view() const noexcept {
    return View{scope, cards, values, rank, size};
  }
};

/// Allocates an uninitialized table over `scope`/`cards` (copied into
/// the arena). Size is overflow-checked.
[[nodiscard]] Table make_table(const VariableId* scope,
                               const std::size_t* cards, std::size_t rank,
                               Arena& arena);

/// Merges two sorted scopes into `scope`/`cards` (caller buffers of
/// capacity a.rank + b.rank); returns the merged rank. Throws
/// std::invalid_argument, in every build mode, when a shared variable's
/// cardinalities differ.
[[nodiscard]] std::size_t merge_scopes(const View& a, const View& b,
                                       VariableId* scope, std::size_t* cards);

/// Pointwise product over the merged scope `scope`/`cards[0..rank)`
/// (as produced by merge_scopes); writes prod(cards) values to `out`.
void product_into(const View& a, const View& b, const VariableId* scope,
                  const std::size_t* cards, std::size_t rank, double* out);

/// Arena-allocated product (merged scope computed internally).
[[nodiscard]] Table product(const View& a, const View& b, Arena& arena);

/// Sums out every scope variable NOT in `keep` (sorted, a subset of the
/// scope) in one pass; `out` must hold prod(kept cards) values
/// (zero-initialized by the kernel).
void marginalize_keep_into(const View& f, const VariableId* keep,
                           std::size_t nkeep, double* out);

/// The evidence reduction: every scope member `evidence` observes is
/// fixed at its state and leaves the scope (all of them: a rank-0
/// table), and evidence off the scope is ignored. One walk over the
/// scope places the first consistent cell, and `walk` copies the
/// consistent cells, in order. Returns `f` itself, with no copy, when no
/// member is observed, and otherwise a table in `arena`. Throws
/// std::out_of_range, in every build mode, for an observed state past
/// its variable's cardinality.
[[nodiscard]] View reduce(const View& f, const Evidence& evidence, Arena& arena);

/// reduce() into an owning Factor: the same cells, or a copy of `f` when
/// no member is observed.
[[nodiscard]] Factor reduce(const View& f, const Evidence& evidence);

/// reduce() by the one observation `v = state`, with no map built, into a
/// table in `arena` or an owning Factor. Throws std::invalid_argument,
/// in every build mode, unless `v` is in the scope.
[[nodiscard]] Table reduce(const View& f, VariableId v, std::size_t state,
                           Arena& arena);
[[nodiscard]] Factor reduce(const View& f, VariableId v, std::size_t state);

/// Sum of `n` values by pairwise (cascade) summation: error grows
/// O(log n) in the term count instead of O(n) for a naive left fold.
// sysuq-lint-allow(contract-coverage): total linear sum over any span
[[nodiscard]] double total(const double* values, std::size_t n) noexcept;

/// Multiplies every value by `s` in place.
// sysuq-lint-allow(contract-coverage): total in-place map over any span
void scale(double* values, std::size_t n, double s) noexcept;

/// Divides every value by `total` in place: `scale` by 1 / total, bit for
/// bit, when that is finite, and otherwise (a subnormal total, whose
/// inverse overflows) a division of each value.
// sysuq-lint-allow(contract-coverage): total in-place map over any span
void normalize_by(double* values, std::size_t n, double total) noexcept;

// ---------------------------------------------------------------------
// Scaled elimination: the production path under VE.

/// Result of a scaled elimination run, in the arena it ran in (valid
/// until that arena is reset): `table` is the eliminated table and
/// `log_scale` the log of the total mass factored out by the per-round
/// renormalizations, so the true (linear) result is
/// table * exp(log_scale). Rescaling triggers only when an intermediate
/// total leaves [kRescaleFloor, 1/kRescaleFloor], so ordinary queries
/// reproduce the unscaled arithmetic bit for bit while deep-evidence
/// chains cannot underflow to exact zero.
struct ScaledTable {
  View table;
  double log_scale = 0.0;

  /// log of the true total mass: log_scale + log(total(table)).
  [[nodiscard]] double log_total() const noexcept;

  /// True when the evidence baked into the eliminated factors has
  /// exactly zero probability (a genuinely all-zero message, not
  /// underflow): log_total() == -inf.
  [[nodiscard]] bool impossible() const noexcept {
    return !(log_total() > -std::numeric_limits<double>::infinity());
  }
};

/// A ScaledTable materialized as an owning Factor; log_total() and
/// impossible() read it the same way.
struct ScaledFactor {
  Factor factor;
  double log_scale = 0.0;

  /// log of the true total mass: log_scale + log(factor.total()).
  [[nodiscard]] double log_total() const;

  /// As ScaledTable::impossible().
  [[nodiscard]] bool impossible() const {
    return !(log_total() > -std::numeric_limits<double>::infinity());
  }
};

/// Runs variable elimination over `factors` following `order` with
/// per-round rescaling (see ScaledTable). Views must outlive the call;
/// intermediates and the result live in `arena` (the caller resets it
/// once it has read the result). An all-zero intermediate short-circuits
/// to an impossible result (a zero scalar table with log_scale = -inf).
///
/// Bucket elimination (Dechter 1996): each factor waits in the bucket of
/// its earliest-eliminated variable, so no step scans the live factors.
/// A bucket holds the inputs by index, then messages by creation — the
/// order a scan of the live factors would meet them. The first entry of
/// a repeated variable is its step; an entry with an empty bucket is
/// skipped. A step is one fused pass: each output cell multiplies the
/// bucket's factors left to right and adds the eliminated variable's
/// states in index order, starting from 0.0 (a bucket past the pass's
/// operand array first folds its leading factors with `product`, in
/// order). Factors with nothing left to eliminate are multiplied left to
/// right at the end, each pairwise product rescaled. The arithmetic is
/// therefore that of pairwise `product` calls and `marginalize_keep_into`,
/// bit for bit, as long as the compiler does not contract a multiply and
/// the following add into an FMA; the library build compiles kernels.cpp
/// with `-ffp-contract=off` for that reason.
[[nodiscard]] ScaledTable eliminate(std::span<const View> factors,
                                    std::span<const VariableId> order,
                                    Arena& arena);

/// eliminate() with its result materialized as an owning Factor, the
/// same arithmetic bit for bit. The engine reads eliminate()'s table in
/// the arena instead; this wrapper serves the tests, the benches and
/// perfbench.
[[nodiscard]] ScaledFactor eliminate_scaled(std::vector<View> factors,
                                            const std::vector<VariableId>& order,
                                            Arena& arena);

/// Per-thread scratch arena for the inference hot paths. Reset it at
/// the top of each query/calibration frame; never hold tables across a
/// frame boundary or share them between threads.
[[nodiscard]] Arena& thread_scratch();

}  // namespace sysuq::bayesnet::kernels
