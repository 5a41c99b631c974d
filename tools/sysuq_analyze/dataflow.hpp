// Forward dataflow framework for sysuq_analyze, and the analyzer's one
// copy of each fixpoint.
//
// The abstract domain is a powerset lattice per named local: each
// variable maps to a bitmask of pass-defined facts (arena-handle,
// arena-view, stale, log-domain, ...), absent means bottom, and join is
// bitwise OR — so every analysis built on it is a may-analysis and a
// fixpoint always exists (finite facts, monotone transfer). The solver
// runs a worklist over a function's CFG (cfg.hpp); interprocedural
// facts travel through per-root name-granular function summaries that
// `solve_with_summaries` iterates to their fixpoint. Closures over the
// call graph (contract coverage, transitive lock acquisition, worker
// roles) are one `reachable` search over the graph built once per scan.
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
/// fixpoint to terminate, which every pass here satisfies. Every block
/// an edge reaches is processed at least once, even when the edge
/// brings no facts. Constructed only by `solve_with_summaries`.
class ForwardAnalysis {
 public:
  using Transfer = std::function<void(const Stmt&, VarState&)>;

  ForwardAnalysis(const Cfg& cfg, VarState entry, Transfer transfer);

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

/// A summary pass's transfer: applies statement `s` of function
/// `def_name` in `f` to `state`, reading `summary` (the names of the
/// root's functions whose returns carry the pass's fact). When
/// `summary_out` is non-null, a `return` that yields the fact records
/// `def_name` there.
using SummaryTransfer = void (*)(const LexedFile& f, const Stmt& s,
                                 VarState& state,
                                 const std::set<std::string>& summary,
                                 const std::string& def_name,
                                 std::set<std::string>* summary_out);

/// A definition's entry state (facts of its parameters).
using EntryState = VarState (*)(const LexedFile& f, const FunctionDef& def);

/// Receives one definition's analysis, solved against its root's final
/// summary, for the pass to replay and report.
using SummaryReport = std::function<void(
    const AnalyzedFile& af, const FunctionDef& def,
    const std::set<std::string>& summary, const ForwardAnalysis& fa)>;

/// The one interprocedural fixpoint (arena-escape, log-domain): builds
/// every definition's CFG once, solves each definition in project order
/// with `transfer` until no root's summary grows (a run sees the names
/// recorded so far, its own included), then solves each once more
/// against the final summary and hands it to `report`. A null `entry`
/// starts every definition from the empty state.
void solve_with_summaries(const Project& project, SummaryTransfer transfer,
                          EntryState entry, const SummaryReport& report);

/// Names to the names they point at.
using NameGraph = std::map<std::string, std::set<std::string>>;

/// Name-granular call graph, built once per scan: per scan root,
/// function name -> callee names (every identifier followed by '(' in
/// the body), and the same edges reversed. Name-granular on purpose: a
/// precise call graph is front-end territory, and over-approximation
/// feeds may-analyses, which stay sound for "might this happen"
/// questions.
struct CallGraph {
  struct Edges {
    NameGraph callees;  ///< function -> names it calls
    NameGraph callers;  ///< name -> functions that call it
  };
  std::map<std::string, Edges> by_root;

  /// The edges of scan root `root`; empty for a root without functions.
  [[nodiscard]] const Edges& root(const std::string& root) const;
};

[[nodiscard]] CallGraph build_call_graph(const Project& project);

/// Every name reachable from `seeds` along `edges`, seeds included: the
/// one call-graph closure. Over callees it finds what the seeds may
/// call; over callers, every function that may reach a seed.
[[nodiscard]] std::set<std::string> reachable(const NameGraph& edges,
                                              std::set<std::string> seeds);

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

}  // namespace sysuq_analyze
