// Pass registry for sysuq_analyze.
//
// Passes:
//   legacy       — the five PR-4 line-lint rules, re-homed onto the
//                  lexer: rng-discipline, float-eq, magic-epsilon,
//                  include-hygiene, obs-naming.
//   layering     — include graph over module trees; enforces the module
//                  DAG core -> prob -> bayesnet -> {evidence,
//                  perception, fta, markov, orbit} -> sys, with obs
//                  includable by everyone but including only core.
//   contracts    — every non-inline public function declared in a
//                  module header executes a SYSUQ_EXPECT /
//                  SYSUQ_ASSERT_PROB* / SYSUQ_ENSURE in its definition,
//                  directly or through the call graph's closure.
//   mutate       — member mutations preceding the last precondition
//                  check in a function (the PR-2 set_cpt bug class).
//   arena        — arena-escape dataflow: thread_scratch()/Arena views
//                  used after reset(), stored into members, or captured
//                  by thread-pool callbacks (cfg.hpp + dataflow.hpp's
//                  solve_with_summaries).
//   lockorder    — global lock-acquisition graph with cycle detection,
//                  plus no-mutex-across-cv-wait/dispatch/join.
//   logdomain    — log-domain values flowing into linear arithmetic or
//                  SYSUQ_ASSERT_PROB* without exp()/from_log(), and
//                  naive += accumulation over probability arrays
//                  (through solve_with_summaries, as arena).
//   obscontext   — a function opening an obs::Span and dispatching onto
//                  a thread pool must hand the TraceContext to the
//                  tasks (current_context() + ContextScope), so worker
//                  spans parent into the query's trace.
//   threadescape — interprocedural race/escape analysis: thread roles
//                  inferred from pool-dispatch and std::thread sites,
//                  two-role members written without their guard, by-ref
//                  captures outliving the frame, sysuq-requires at call
//                  sites, sysuq-thread-confined role violations.
//   guards       — lexical annotation checking: sysuq-guarded-by
//                  accesses against the held-lock scope stack,
//                  sysuq-excludes at call sites, and unannotated
//                  members of mutex-owning classes (which owns every
//                  unlocked member write); its lock-scope walk also
//                  checks lock-discipline, the .load/.store memory
//                  order against each atomic member's declared ceiling.
//
// contracts, lockorder and threadescape share one CallGraph
// (dataflow.hpp), built once per scan.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/model.hpp"

namespace sysuq_analyze {

struct Violation {
  std::string path;  ///< root-joined display path (also the SARIF uri)
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Collects violations, honouring `sysuq-lint-allow` markers and the
/// --only rule filter.
class Reporter {
 public:
  /// Empty = all rules enabled.
  std::set<std::string> only;

  [[nodiscard]] bool enabled(const std::string& rule) const {
    return only.empty() || only.count(rule) > 0;
  }

  /// Files a violation unless the rule is filtered out or the line
  /// carries an allow marker for it.
  void report(const LexedFile& f, std::size_t line, const std::string& rule,
              const std::string& message);

  /// As above, but also honours a marker on any of `extra_lines`
  /// (e.g. the header declaration of a flagged definition).
  void report_multi(const LexedFile& f, std::size_t line,
                    const std::vector<const LexedFile*>& extra_files,
                    const std::vector<std::size_t>& extra_lines,
                    const std::string& rule, const std::string& message);

  std::vector<Violation> violations;
};

/// One analyzed file: tokens plus structural model.
struct AnalyzedFile {
  LexedFile lex;
  FileModel model;
};

/// The project under analysis: all files from all roots, plus a class
/// index so passes can resolve `Class::method` definitions to the class
/// body parsed from another file of the same module.
class Project {
 public:
  std::vector<AnalyzedFile> files;

  /// Builds the class index; call once after `files` is filled.
  void index();

  /// Resolves `name` to a class: the defining file first, then any file
  /// of the same (root, module).
  [[nodiscard]] const ClassInfo* find_class(const AnalyzedFile& from,
                                            const std::string& name) const;

 private:
  std::map<std::tuple<std::string, std::string, std::string>,
           const ClassInfo*>
      by_name_;
};

struct CallGraph;

void pass_legacy(const Project& project, Reporter& rep);
void pass_layering(const Project& project, Reporter& rep);
void pass_contracts(const Project& project, const CallGraph& calls,
                    Reporter& rep);
void pass_mutate(const Project& project, Reporter& rep);
void pass_arena(const Project& project, Reporter& rep);
void pass_lockorder(const Project& project, const CallGraph& calls,
                    Reporter& rep);
void pass_logdomain(const Project& project, Reporter& rep);
void pass_obscontext(const Project& project, Reporter& rep);
void pass_threadescape(const Project& project, const CallGraph& calls,
                       Reporter& rep);
void pass_guards(const Project& project, Reporter& rep);

/// Display path for a file (root-joined, generic separators).
[[nodiscard]] std::string display_path(const LexedFile& f);

}  // namespace sysuq_analyze
