// Contract-coverage pass: every non-inline public function declared in
// a module header must execute a SYSUQ_EXPECT / SYSUQ_ENSURE /
// SYSUQ_ASSERT_PROB* in its out-of-line definition, or carry a
// `// sysuq-lint-allow(contract-coverage): reason` on the declaration
// or the definition. This enforces the paper's demand that uncertainty
// handling be uniform across subsystems: preconditions are stated where
// the module boundary is crossed, not ad hoc.
//
// Two deliberate narrowings keep the rule about *entry points* rather
// than every accessor:
//   - parameterless functions are exempt — with no inputs there is no
//     precondition to state;
//   - coverage is transitive: a definition that calls a function whose
//     own definition executes a contract is covered (one search over
//     the call graph's reversed edges, so `query -> query_impl ->
//     SYSUQ_EXPECT` chains of any depth count).
//
// The check is definition-driven: a (class, name) declared without a
// body in a module header is looked up among the module's .cpp
// definitions; templates, operators, destructors, defaulted/deleted
// functions and in-header (inline) definitions are out of scope.
// core/contracts.* — the enforcement machinery itself — is exempt.
#include "sysuq_analyze/passes.hpp"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sysuq_analyze/dataflow.hpp"

namespace sysuq_analyze {

namespace {

// A definition checks its inputs when it executes a contract macro, the
// core checkers, or a plain `throw` — the codebase's private validators
// (e.g. BayesianNetwork::check_id) throw std::out_of_range directly.
bool has_direct_contract(const LexedFile& f, const FunctionDef& def) {
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "SYSUQ_EXPECT" || t.text == "SYSUQ_ENSURE" ||
        t.text == "SYSUQ_ASSERT_PROB" || t.text == "SYSUQ_ASSERT_PROB_VEC" ||
        t.text == "check_probability" || t.text == "check_prob_vec" ||
        t.text == "throw")
      return true;
  }
  return false;
}

}  // namespace

void pass_contracts(const Project& project, const CallGraph& calls,
                    Reporter& rep) {
  if (!rep.enabled("contract-coverage")) return;

  // (root, module, class, name) -> declaration sites in headers.
  struct DeclSite {
    const LexedFile* file;
    std::size_t line;
  };
  std::map<std::tuple<std::string, std::string, std::string, std::string>,
           std::vector<DeclSite>>
      declared;

  for (const auto& af : project.files) {
    const LexedFile& f = af.lex;
    if (!f.is_header || f.module_name.empty()) continue;
    if (f.rel.rfind("core/contracts", 0) == 0) continue;
    for (const auto& ci : af.model.classes) {
      for (const auto& d : ci.public_decls) {
        declared[{f.root, f.module_name, ci.name, d.name}].push_back(
            {&f, d.line});
      }
    }
    for (const auto& d : af.model.free_decls) {
      declared[{f.root, f.module_name, std::string(), d.name}].push_back(
          {&f, d.line});
    }
  }

  // Transitive coverage: seed with the names of functions whose
  // definitions execute a contract directly, then cover every function
  // that reaches a covered name over the call graph. Name-granular on
  // purpose — a precise call graph is front-end territory, and
  // over-approximating coverage only ever silences the rule, never
  // false-fires it.
  std::map<std::string, std::set<std::string>> covered_by_root;
  for (const auto& af : project.files) {
    // `.at()` and `.value()` are checked accesses (they throw on a bad
    // index / empty optional), so calling them counts as validating.
    covered_by_root[af.lex.root].insert("at");
    covered_by_root[af.lex.root].insert("value");
    for (const auto& def : af.model.defs) {
      if (has_direct_contract(af.lex, def))
        covered_by_root[af.lex.root].insert(def.name);
    }
  }
  for (auto& [root, covered] : covered_by_root)
    covered = reachable(calls.root(root).callers, std::move(covered));

  for (const auto& af : project.files) {
    const LexedFile& f = af.lex;
    if (!f.is_source || f.module_name.empty()) continue;
    if (f.rel.rfind("core/contracts", 0) == 0) continue;
    const auto& covered = covered_by_root[f.root];
    for (const auto& def : af.model.defs) {
      if (def.is_dtor || def.in_header || !def.has_params) continue;
      const auto it = declared.find(
          {f.root, f.module_name, def.class_name, def.name});
      if (it == declared.end()) continue;
      if (covered.count(def.name) > 0) continue;
      std::vector<const LexedFile*> extra_files;
      std::vector<std::size_t> extra_lines;
      for (const auto& site : it->second) {
        extra_files.push_back(site.file);
        extra_lines.push_back(site.line);
      }
      const std::string qual = def.class_name.empty()
                                   ? def.name
                                   : def.class_name + "::" + def.name;
      rep.report_multi(
          f, def.line, extra_files, extra_lines, "contract-coverage",
          "public entry point '" + qual +
              "' (declared in a module header) executes no SYSUQ_EXPECT/"
              "SYSUQ_ASSERT_PROB* (directly or via a callee); add a "
              "contract or annotate the declaration");
    }
  }
}

}  // namespace sysuq_analyze
