// guard-consistency: enforces the thread-safety annotation language
// lexically, inside each function.
//
//   1. A member annotated `// sysuq-guarded-by(mu)` may only be touched
//      while `mu` is on the lexical lock-scope stack (RAII guard scopes,
//      .lock()/.unlock() pairs, and the function's own sysuq-requires
//      contract all count; constructors and destructors are exempt —
//      no concurrent access exists during construction).
//   2. A function annotated `// sysuq-excludes(mu)` must not be called
//      while `mu` is held: it takes that lock itself, so the call
//      self-deadlocks on a non-recursive mutex.
//   3. Every non-atomic member of a mutex-owning class must carry an
//      annotation (guarded-by or thread-confined) — unannotated members
//      are findings, so an annotation sweep is forced to completion
//      rather than silently stalling at "the easy ones".
//
// Cross-thread reachability (which code runs on which thread role) is
// thread-escape's job; this pass is the purely lexical half the
// annotations make checkable per function.
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "sysuq_analyze/lockscope.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

namespace {

constexpr const char* kRule = "guard-consistency";

bool exempt_member(const MemberVar& m) {
  if (m.is_mutex || m.is_atomic) return true;
  if (m.name == "operator") return true;  // deleted operator=, parse artifact
  if (!m.guarded_by.empty() || !m.confined.empty()) return true;
  // Condition variables synchronize through their own wait protocol.
  return m.type_text.find("condition_variable") != std::string::npos;
}

void check_def(const Project& project, const AnalyzedFile& af,
               const FunctionDef& def, const ClassInfo& ci,
               const std::map<std::string, std::set<std::string>>& excludes,
               Reporter& rep) {
  const LexedFile& f = af.lex;
  const auto& t = f.tokens;
  // Canonical guard of each guarded member, resolved once.
  std::map<std::string, std::string> guard_of;
  for (const MemberVar& m : ci.members)
    if (!m.guarded_by.empty())
      guard_of[m.name] =
          canonical_annotation(project, af, ci.name, m.guarded_by);

  const std::set<std::string> entry = entry_locks(project, af, def);
  walk_lock_scopes(
      project, af, def.class_name, def.body_begin, def.body_end, entry,
      [&](std::size_t i, const std::set<std::string>& held) {
        const Token& tok = t[i];
        if (tok.kind != TokKind::kIdent) return;

        // Guarded member touched without its guard.
        if (!def.is_ctor && !def.is_dtor) {
          const auto g = guard_of.find(tok.text);
          if (g != guard_of.end() && plain_member_access(f, i) &&
              held.count(g->second) == 0) {
            const bool write = member_write_at(f, i);
            rep.report(f, tok.line, kRule,
                       std::string(write ? "write to" : "read of") +
                           " member '" + tok.text + "' guarded by '" +
                           g->second +
                           "' (sysuq-guarded-by) without holding it; take "
                           "the lock or move the access into the guarded "
                           "scope");
          }
        }

        // Call to a function that excludes a held lock.
        const bool called = i + 1 < t.size() &&
                            is_punct(t[i + 1], "(") && tok.text != def.name;
        if (called) {
          const auto e = excludes.find(tok.text);
          if (e != excludes.end()) {
            for (const std::string& mu : e->second) {
              if (held.count(mu) == 0) continue;
              rep.report(f, tok.line, kRule,
                         "call to '" + tok.text + "' which excludes '" + mu +
                             "' (sysuq-excludes) while '" + mu +
                             "' is held; it takes that lock itself — "
                             "release before calling");
            }
          }
        }
      });
}

}  // namespace

void pass_guards(const Project& project, Reporter& rep) {
  if (!rep.enabled(kRule)) return;

  // 1. Annotation completeness over mutex-owning classes.
  for (const auto& af : project.files) {
    for (const auto& ci : af.model.classes) {
      if (!ci.owns_mutex) continue;
      for (const MemberVar& m : ci.members) {
        if (exempt_member(m)) continue;
        rep.report(af.lex, m.line, kRule,
                   "member '" + m.name + "' of mutex-owning class '" +
                       ci.name +
                       "' has no thread-safety annotation; add "
                       "// sysuq-guarded-by(<mutex>), // sysuq-thread-"
                       "confined(owner|worker|init), make it atomic, or "
                       "allow-mark it with a reason");
      }
    }
  }

  // 2. Guarded accesses and excludes-contracts, per definition.
  const LockContracts contracts = collect_lock_contracts(project);
  for (const auto& af : project.files) {
    const auto exc_it = contracts.excludes_by_root.find(af.lex.root);
    static const std::map<std::string, std::set<std::string>> kNone;
    const auto& excludes =
        exc_it != contracts.excludes_by_root.end() ? exc_it->second : kNone;
    for (const auto& def : af.model.defs) {
      const ClassInfo* ci = def.class_name.empty()
                                ? nullptr
                                : project.find_class(af, def.class_name);
      if (ci == nullptr) {
        // Free functions still honour excludes-contracts at call sites.
        if (excludes.empty()) continue;
        static const ClassInfo kEmpty;
        check_def(project, af, def, kEmpty, excludes, rep);
        continue;
      }
      check_def(project, af, def, *ci, excludes, rep);
    }
  }
}

}  // namespace sysuq_analyze
