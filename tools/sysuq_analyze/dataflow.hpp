// Forward dataflow framework for sysuq_analyze.
//
// The abstract domain is a powerset lattice per named local: each
// variable maps to a bitmask of pass-defined facts (arena-handle,
// arena-view, stale, log-domain, ...), absent means bottom, and join is
// bitwise OR — so every analysis built on it is a may-analysis and a
// fixpoint always exists (finite facts, monotone transfer). The solver
// runs a worklist over a function's CFG (cfg.hpp); interprocedural
// facts travel through per-root name-granular function summaries the
// passes iterate to their own fixpoint, exactly like contract-coverage
// already does for its covered set.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sysuq_analyze/cfg.hpp"
#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

/// Variable name -> fact bitmask. Absent = bottom (no facts).
using VarState = std::map<std::string, unsigned>;

/// OR-joins `from` into `into`; true when `into` grew.
bool join_states(VarState& into, const VarState& from);

/// Forward worklist solver over one function's CFG. `transfer` mutates
/// the state through one statement (gen/kill); it must be monotone in
/// the OR lattice (only ever add bits for a given input) for the
/// fixpoint to terminate, which every pass here satisfies.
class ForwardAnalysis {
 public:
  using Transfer = std::function<void(const Stmt&, VarState&)>;

  ForwardAnalysis(const Cfg& cfg, VarState entry, Transfer transfer);

  /// Fixpoint state at entry of block `b`.
  [[nodiscard]] const VarState& block_in(std::size_t b) const {
    return in_[b];
  }

  /// Replays the fixpoint: for every statement of every block calls
  /// `visit(stmt, state-before)` then applies the transfer. Blocks are
  /// visited in index order (construction order ~ source order), so
  /// reported violations are deterministic.
  void replay(
      const std::function<void(const Stmt&, const VarState&)>& visit) const;

  /// Union of every variable's facts anywhere in the function (entry
  /// states and post-transfer): the flow-insensitive summary used for
  /// "is this name ever an arena view here" style questions.
  [[nodiscard]] VarState anywhere() const;

 private:
  const Cfg& cfg_;
  Transfer transfer_;
  std::vector<VarState> in_;
};

/// Name-granular call graph: for each scan root, function name ->
/// callee names (every identifier followed by '(' in the body).
/// Name-granular on purpose, matching contract-coverage: a precise
/// call graph is front-end territory, and over-approximation feeds
/// may-analyses, which stay sound for "might this happen" questions.
struct CallGraph {
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      callees_by_root;
};

[[nodiscard]] CallGraph build_call_graph(const Project& project);

// ---------------------------------------------------------------------
// Shared token utilities for the dataflow passes.

/// If token `i` opens a lambda introducer (`[` whose matching `]` is
/// followed, after an optional parameter list and specifiers, by `{`),
/// returns one past the lambda's closing `}`; otherwise returns `i`.
/// Dataflow transfers skip lambda bodies — a lambda's effects happen at
/// its call sites, not its definition site.
[[nodiscard]] std::size_t lambda_end(const LexedFile& f, std::size_t i,
                                     std::size_t limit);

/// Token indices of `[begin, end)` with every lambda removed, introducer
/// included: the "effective" tokens a statement-level walk looks at (a
/// lambda's effects belong to its call sites, and a guard it declares
/// scopes to the lambda).
[[nodiscard]] std::vector<std::size_t> effective_tokens(const LexedFile& f,
                                                        std::size_t begin,
                                                        std::size_t end);

/// All lambda body ranges `[begin, end)` (tokens between the braces)
/// inside `[begin, end)`, outermost only, in order.
struct LambdaRange {
  std::size_t intro = 0;  ///< the '[' token
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};
[[nodiscard]] std::vector<LambdaRange> find_lambdas(const LexedFile& f,
                                                    std::size_t begin,
                                                    std::size_t end);

/// True when any identifier token in `[begin, end)` (lambda bodies
/// included) equals a key of `state` carrying any bit of `mask`, and is
/// not a member access off another object (`x.name` / `ns::name`).
[[nodiscard]] bool mentions_fact(const LexedFile& f, std::size_t begin,
                                 std::size_t end, const VarState& state,
                                 unsigned mask);

}  // namespace sysuq_analyze
