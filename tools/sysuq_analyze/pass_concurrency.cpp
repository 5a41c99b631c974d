// Concurrency passes.
//
// lock-discipline — in classes owning a std::mutex (wherever the class
// body lives: the header, or a .cpp for file-local helpers), a member
// function must not write a non-atomic member while it holds no lock
// (the held set of lockscope.hpp's walker, which the function's
// sysuq-requires contract seeds), and must not call .load() / .store()
// on an atomic member with a memory order stricter than the member's
// declared ceiling (default: relaxed; raise it with
// `// sysuq-atomic-order(<order>)` on the member's declaration line).
// A bare .load()/.store() defaults to seq_cst and is therefore flagged
// — the point is that accidental seq_cst on a statistics counter is a
// performance bug and, worse, can hide a missing lock by providing
// ordering the design never promised.
//
// validate-before-mutate — a member mutation that precedes the last
// precondition check (SYSUQ_EXPECT / SYSUQ_ASSERT_PROB*) in a function
// leaves the object half-mutated when the check throws: the PR-2
// set_cpt bug class. Validate everything, then mutate.
#include "sysuq_analyze/passes.hpp"

#include <cstddef>
#include <set>
#include <string>

#include "sysuq_analyze/lockscope.hpp"

namespace sysuq_analyze {

namespace {

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

void check_lock_discipline(const Project& project, const AnalyzedFile& af,
                           const FunctionDef& def, const ClassInfo& ci,
                           Reporter& rep) {
  const LexedFile& f = af.lex;
  const auto& t = f.tokens;
  walk_lock_scopes(
      project, af, def.class_name, def.body_begin, def.body_end,
      entry_locks(project, af, def),
      [&](std::size_t i, const std::set<std::string>& held) {
        const Token& tok = t[i];
        if (tok.kind != TokKind::kIdent) return;
        const MemberVar* m = ci.member(tok.text);
        if (m == nullptr) return;

        // Stricter-than-declared .load()/.store() on an atomic member.
        if (m->is_atomic) {
          std::size_t j = i + 1;
          if (j < t.size() && is_punct(t[j], "["))
            j = match_bracket(t, j, t.size(), "[", "]");
          if (j + 1 < t.size() && is_punct(t[j], ".") &&
              t[j + 1].kind == TokKind::kIdent &&
              (t[j + 1].text == "load" || t[j + 1].text == "store") &&
              j + 2 < t.size() && is_punct(t[j + 2], "(")) {
            const std::string declared =
                m->declared_order.empty() ? "relaxed" : m->declared_order;
            const std::string used = call_order(f, j + 2);
            const std::string used_name =
                used.empty() ? "seq_cst (default)" : used;
            if (order_rank(used) > order_rank(declared)) {
              rep.report(f, t[j + 1].line, "lock-discipline",
                         "atomic member '" + m->name + "'." + t[j + 1].text +
                             " uses memory order " + used_name +
                             ", stricter than its declared ceiling '" +
                             declared +
                             "' (raise it with // sysuq-atomic-order(...) on "
                             "the member, or relax the call)");
            }
          }
          return;
        }

        // Non-atomic member write while no lock is held.
        if (!def.is_ctor && !def.is_dtor && held.empty() &&
            plain_member_access(f, i) && member_write_at(f, i)) {
          rep.report(f, tok.line, "lock-discipline",
                     "write to non-atomic member '" + m->name + "' of '" +
                         ci.name +
                         "' (a mutex-owning class) while no lock is held "
                         "(take one with a lock_guard, unique_lock, "
                         "scoped_lock or shared_lock)");
        }
      });
}

void check_validate_before_mutate(const LexedFile& f, const FunctionDef& def,
                                  const ClassInfo* ci, Reporter& rep) {
  const auto& t = f.tokens;
  // Last precondition check in the body. SYSUQ_ENSURE is a
  // postcondition: mutations naturally precede it, so it does not count.
  std::size_t last_check = 0;
  bool has_check = false;
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "SYSUQ_EXPECT" || t[i].text == "SYSUQ_ASSERT_PROB" ||
        t[i].text == "SYSUQ_ASSERT_PROB_VEC") {
      last_check = i;
      has_check = true;
    }
  }
  if (!has_check) return;

  for (std::size_t i = def.body_begin; i < last_check; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& name = t[i].text;
    const bool member_name =
        ci != nullptr
            ? ci->member(name) != nullptr
            : name.size() > 1 && name.back() == '_';  // repo style: foo_
    if (!member_name) continue;
    if (ci != nullptr && ci->member(name)->is_mutex) continue;
    if (plain_member_access(f, i) && member_write_at(f, i)) {
      rep.report(f, t[i].line, "validate-before-mutate",
                 "member '" + name +
                     "' is mutated before the function's last precondition "
                     "check; a throwing contract would leave the object "
                     "half-mutated (validate everything, then mutate)");
    }
  }
}

}  // namespace

void pass_locks(const Project& project, Reporter& rep) {
  if (!rep.enabled("lock-discipline")) return;
  for (const auto& af : project.files) {
    for (const auto& def : af.model.defs) {
      if (def.class_name.empty()) continue;
      const ClassInfo* ci = project.find_class(af, def.class_name);
      if (ci == nullptr || !ci->owns_mutex) continue;
      check_lock_discipline(project, af, def, *ci, rep);
    }
  }
}

void pass_mutate(const Project& project, Reporter& rep) {
  if (!rep.enabled("validate-before-mutate")) return;
  for (const auto& af : project.files) {
    for (const auto& def : af.model.defs) {
      if (def.is_ctor || def.is_dtor) continue;
      const ClassInfo* ci = def.class_name.empty()
                                ? nullptr
                                : project.find_class(af, def.class_name);
      check_validate_before_mutate(af.lex, def, ci, rep);
    }
  }
}

}  // namespace sysuq_analyze
