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
// Together these own every unlocked write to a member of a mutex-owning
// class: a guarded member is flagged at the access, an unannotated one
// at its declaration, and a thread-confined one is thread-escape's to
// police.
//
// The same lock-scope walk checks lock-discipline, the atomic-order
// ceiling: in a class owning a std::mutex, a .load() / .store() on an
// atomic member must not use a memory order stricter than the member's
// declared ceiling (default: relaxed; raise it with
// `// sysuq-atomic-order(<order>)` on the member's declaration line). A
// bare .load()/.store() defaults to seq_cst and is therefore flagged —
// accidental seq_cst on a statistics counter is a performance bug and,
// worse, can hide a missing lock by providing ordering the design never
// promised.
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
constexpr const char* kCeilingRule = "lock-discipline";

int order_rank(const std::string& order) {
  if (order == "relaxed") return 0;
  if (order == "consume") return 1;
  if (order == "acquire" || order == "release") return 2;
  if (order == "acq_rel") return 3;
  return 4;  // seq_cst and anything unrecognized
}

// The memory order named in a .load(...)/.store(...) argument list
// starting at the '(' token; "" when no order argument is present
// (which means seq_cst). The order is the call's LAST argument, so the
// last match wins — a nested `x.load(acquire)` inside a store's value
// expression must not be mistaken for the store's own order.
std::string call_order(const LexedFile& f, std::size_t paren) {
  const std::size_t end =
      match_bracket(f.tokens, paren, f.tokens.size(), "(", ")");
  std::string order;
  for (std::size_t k = paren; k < end; ++k) {
    const Token& t = f.tokens[k];
    if (t.kind != TokKind::kIdent) continue;
    static const std::string kPrefix = "memory_order_";
    if (t.text.rfind(kPrefix, 0) == 0) order = t.text.substr(kPrefix.size());
    else if (t.text == "memory_order" && k + 2 < end &&
             is_punct(f.tokens[k + 1], "::"))
      order = f.tokens[k + 2].text;
  }
  return order;
}

// lock-discipline: a .load()/.store() at token `i` (an atomic member
// of a mutex-owning class) stricter than the member's declared ceiling.
void check_atomic_order(const LexedFile& f, std::size_t i, const MemberVar& m,
                        Reporter& rep) {
  const auto& t = f.tokens;
  std::size_t j = i + 1;
  if (j < t.size() && is_punct(t[j], "["))
    j = match_bracket(t, j, t.size(), "[", "]");
  if (j + 2 >= t.size() || !is_punct(t[j], ".") ||
      t[j + 1].kind != TokKind::kIdent ||
      (t[j + 1].text != "load" && t[j + 1].text != "store") ||
      !is_punct(t[j + 2], "("))
    return;
  const std::string declared =
      m.declared_order.empty() ? "relaxed" : m.declared_order;
  const std::string used = call_order(f, j + 2);
  if (order_rank(used) <= order_rank(declared)) return;
  const std::string used_name = used.empty() ? "seq_cst (default)" : used;
  rep.report(f, t[j + 1].line, kCeilingRule,
             "atomic member '" + m.name + "'." + t[j + 1].text +
                 " uses memory order " + used_name +
                 ", stricter than its declared ceiling '" + declared +
                 "' (raise it with // sysuq-atomic-order(...) on the member, "
                 "or relax the call)");
}

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

        // Atomic member used with a stricter order than its ceiling.
        if (ci.owns_mutex) {
          const MemberVar* m = ci.member(tok.text);
          if (m != nullptr && m->is_atomic) check_atomic_order(f, i, *m, rep);
        }

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
  if (!rep.enabled(kRule) && !rep.enabled(kCeilingRule)) return;

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
