// arena-escape: values backed by the per-thread bump arena
// (kernels::thread_scratch() / Arena::alloc) must not outlive the
// storage. Three escape shapes are flagged:
//
//   1. use of a view after the arena it points into was reset(),
//   2. an arena-backed view stored into a class member (the member
//      outlives the next reset),
//   3. an arena handle or view captured by a lambda handed to a
//      thread-pool dispatch (thread_scratch() is per-thread; another
//      thread's resets race the capture).
//
// The pass runs the forward dataflow framework (dataflow.hpp) over each
// function's CFG with a 4-bit lattice per variable:
//
//   HANDLE — an Arena (reference) obtained from thread_scratch() or
//            passed in as Arena&,
//   VIEW   — storage that may point into an arena,
//   STALE  — VIEW after a reset() of any handle on any path,
//   OWNING — declared with an owning type (Factor, vector<double>,
//            scalars...); assignments into it launder taint.
//
// Taint is *production-based*, not mention-based: a right-hand side
// produces a view only when it is a tainted variable chain or a
// depth-0 call to a function whose own return statements were proven
// to produce views (a per-root summary, which dataflow.hpp's
// solve_with_summaries iterates to its fixpoint). `ScaledFactor out =
// eliminate_scaled(.., arena)`
// therefore stays clean — the callee materializes — while
// `auto* p = arena.alloc<double>(n)` and `x = product(a, b, arena)`
// taint. Lambda bodies are skipped by the transfer: a lambda's effects
// belong to its call sites, and the pool-capture rule looks inside
// bodies explicitly.
#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sysuq_analyze/cfg.hpp"
#include "sysuq_analyze/dataflow.hpp"
#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/lockscope.hpp"
#include "sysuq_analyze/model.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

namespace {

constexpr unsigned kHandle = 1u;
constexpr unsigned kView = 2u;
constexpr unsigned kStale = 4u;
constexpr unsigned kOwning = 8u;

constexpr const char* kRule = "arena-escape";

/// Types whose values own their storage: initializing or assigning one
/// copies out of the arena, laundering the taint.
bool owning_type_word(const std::string& w) {
  static const std::set<std::string> kOwning_words = {
      "double",   "float",      "int",      "long",    "short",
      "unsigned", "bool",       "size_t",   "char",    "string",
      "Factor",   "ScaledFactor", "Categorical", "Evidence",
      "JointTable", "optional", "shared_ptr", "unique_ptr",
  };
  return kOwning_words.count(w) > 0;
}

/// Words marking a type as arena-view-ish when they appear in the
/// declared type of a variable.
bool viewish_type_word(const std::string& w) {
  return w == "View" || w == "Table";
}

/// True when any effective token is an unqualified identifier carrying
/// a bit of `mask`; writes the first such name to `*who` if non-null.
bool eff_mentions(const LexedFile& f, const std::vector<std::size_t>& eff,
                  std::size_t from, std::size_t to, const VarState& state,
                  unsigned mask, std::string* who = nullptr) {
  const auto& t = f.tokens;
  for (std::size_t k = from; k < to && k < eff.size(); ++k) {
    const std::size_t i = eff[k];
    if (t[i].kind != TokKind::kIdent) continue;
    if (k > from) {
      const Token& prev = t[eff[k - 1]];
      if (prev.kind == TokKind::kPunct &&
          (prev.text == "." || prev.text == "->" || prev.text == "::"))
        continue;
    }
    const auto it = state.find(t[i].text);
    if (it != state.end() && (it->second & mask) != 0) {
      if (who != nullptr) *who = t[i].text;
      return true;
    }
  }
  return false;
}

/// Does the expression spanning effective indices [from, to) produce an
/// arena-backed view? True for a leading tainted variable chain
/// (`v`, `v.view()`, `std::move(v)`) and for a depth-0 call to a
/// summary function or an Arena allocation method off a handle.
bool produces_view(const LexedFile& f, const std::vector<std::size_t>& eff,
                   std::size_t from, std::size_t to, const VarState& state,
                   const std::set<std::string>& returns_view) {
  const auto& t = f.tokens;
  // Strip a leading std::move( ... ) or bare parens.
  while (from < to) {
    const std::size_t i = eff[from];
    if (is_punct(t[i], "(")) {
      ++from;
      if (to > from && is_punct(t[eff[to - 1]], ")")) --to;
      continue;
    }
    if (is_ident(t[i], "std") &&
        from + 3 < to && is_punct(t[eff[from + 1]], "::") &&
        t[eff[from + 2]].text == "move" && is_punct(t[eff[from + 3]], "(")) {
      from += 4;
      if (to > from && is_punct(t[eff[to - 1]], ")")) --to;
      continue;
    }
    break;
  }
  if (from >= to) return false;
  // Leading tainted variable (covers `v`, `v.view()`, `v.values`).
  const std::size_t first = eff[from];
  if (t[first].kind == TokKind::kIdent) {
    const auto it = state.find(t[first].text);
    if (it != state.end() && (it->second & (kView | kStale)) != 0)
      return true;
  }
  // Depth-0 calls.
  int depth = 0;
  for (std::size_t k = from; k < to; ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      continue;
    }
    if (depth != 0 || tok.kind != TokKind::kIdent || k + 1 >= to) continue;
    const Token& next = t[eff[k + 1]];
    const bool called = next.kind == TokKind::kPunct &&
                        (next.text == "(" || next.text == "<");
    if (!called) continue;
    const std::string& name = tok.text;
    if (name == "alloc" || name == "allocate" || name == "make_table") {
      // Arena allocation methods: require a method call off a handle
      // (`arena.alloc<T>(n)`) so unrelated free `alloc`s stay clean.
      if (k > from) {
        const Token& prev = t[eff[k - 1]];
        if (prev.kind == TokKind::kPunct &&
            (prev.text == "." || prev.text == "->") && k >= 2) {
          const Token& recv = t[eff[k - 2]];
          const auto it = state.find(recv.text);
          if ((it != state.end() && (it->second & kHandle) != 0) ||
              recv.text == ")")
            return true;
        }
      }
      continue;
    }
    if (next.text == "(" && returns_view.count(name) > 0) return true;
    if (name == "thread_scratch" && next.text == "(") return true;
  }
  return false;
}

/// Parsed shape of one statement's effective tokens.
struct StmtShape {
  enum Kind { kOther, kDecl, kAssign, kAppend } kind = kOther;
  std::string target;        ///< declared / assigned / appended-to name
  std::size_t target_tok = 0;  ///< token index of the target name
  std::size_t rhs_from = 0;  ///< effective-index range of the RHS / arg
  std::size_t rhs_to = 0;
  unsigned decl_type = 0;    ///< kHandle/kView/kOwning bit for decls
  bool via_this = false;     ///< target written through `this->`
};

bool assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  return t.text == "=" || t.text == "+=" || t.text == "-=" ||
         t.text == "*=" || t.text == "/=";
}

/// Classifies the declared type spelled by effective indices
/// [from, to): viewish wins over handle wins over owning.
unsigned classify_type(const LexedFile& f, const std::vector<std::size_t>& eff,
                       std::size_t from, std::size_t to) {
  bool viewish = false, handle = false, owning = false, vec = false;
  for (std::size_t k = from; k < to; ++k) {
    const Token& t = f.tokens[eff[k]];
    if (is_punct(t, "*")) viewish = true;
    if (t.kind != TokKind::kIdent) continue;
    if (viewish_type_word(t.text)) viewish = true;
    else if (t.text == "Arena") handle = true;
    else if (t.text == "vector" || t.text == "array" || t.text == "map" ||
             t.text == "set" || t.text == "deque")
      vec = true;
    else if (owning_type_word(t.text)) owning = true;
  }
  if (viewish) return kView;
  if (handle) return kHandle;
  if (owning || vec) return kOwning;
  return 0;
}

StmtShape parse_stmt(const LexedFile& f, const std::vector<std::size_t>& eff) {
  StmtShape shape;
  const auto& t = f.tokens;
  if (eff.empty()) return shape;
  // Leading keywords that never head a decl/assign we care about.
  const std::string& lead = t[eff[0]].text;
  if (lead == "return" || lead == "if" || lead == "while" || lead == "for" ||
      lead == "switch" || lead == "do" || lead == "break" ||
      lead == "continue" || lead == "case" || lead == "default" ||
      lead == "using" || lead == "throw")
    return shape;

  // Find the first depth-0 assignment operator.
  int depth = 0;
  std::size_t eq = eff.size();
  for (std::size_t k = 0; k < eff.size(); ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
    }
    if (depth == 0 && assign_op(tok)) {
      eq = k;
      break;
    }
  }

  if (eq < eff.size()) {
    // LHS classification: a lone access chain is an assignment, more
    // than one bare identifier word is a declaration with initializer.
    std::size_t lhs_start = 0;
    bool dotted = false;
    std::size_t words = 0, last_word = eff.size();
    int d2 = 0;
    for (std::size_t k = lhs_start; k < eq; ++k) {
      const Token& tok = t[eff[k]];
      if (tok.kind == TokKind::kPunct) {
        const std::string& p = tok.text;
        if (p == "(" || p == "[" || p == "{") ++d2;
        else if (p == ")" || p == "]" || p == "}") --d2;
        else if (d2 == 0 && (p == "." || p == "->")) dotted = true;
        continue;
      }
      if (d2 != 0 || tok.kind != TokKind::kIdent) continue;
      if (k > 0) {
        const Token& prev = t[eff[k - 1]];
        if (is_punct(prev, "::")) continue;
      }
      ++words;
      last_word = k;
    }
    shape.rhs_from = eq + 1;
    shape.rhs_to = eff.size();
    if (!eff.empty() && is_punct(t[eff.back()], ";")) --shape.rhs_to;
    if (!dotted && words >= 2 && t[eff[eq]].text == "=") {
      shape.kind = StmtShape::kDecl;
      shape.target = t[eff[last_word]].text;
      shape.target_tok = eff[last_word];
      shape.decl_type = classify_type(f, eff, 0, last_word);
      return shape;
    }
    // Assignment: target is the head of the access chain.
    std::size_t head = 0;
    if (is_ident(t[eff[0]], "this") &&
        eq >= 2 && is_punct(t[eff[1]], "->")) {
      head = 2;
      shape.via_this = true;
    }
    if (head < eq && t[eff[head]].kind == TokKind::kIdent) {
      shape.kind = StmtShape::kAssign;
      shape.target = t[eff[head]].text;
      shape.target_tok = eff[head];
    }
    return shape;
  }

  // No '=': ctor-style declaration `Type name(...)` / `Type name{...}`
  // / `Type name;` — only when the pre-name tokens have no member
  // access (rules out `x.reserve(...)` expression statements).
  std::size_t words = 0, last_word = eff.size();
  bool dotted = false;
  for (std::size_t k = 0; k < eff.size(); ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "." || tok.text == "->") dotted = true;
      if (tok.text == "(" || tok.text == "{" || tok.text == ";") break;
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (k > 0 && is_punct(t[eff[k - 1]], "::")) continue;
    ++words;
    last_word = k;
  }
  if (!dotted && words >= 2 && last_word < eff.size()) {
    shape.kind = StmtShape::kDecl;
    shape.target = t[eff[last_word]].text;
    shape.target_tok = eff[last_word];
    shape.decl_type = classify_type(f, eff, 0, last_word);
    shape.rhs_from = last_word + 1;
    shape.rhs_to = eff.size();
    if (shape.rhs_to > shape.rhs_from &&
        is_punct(t[eff[shape.rhs_to - 1]], ";"))
      --shape.rhs_to;
    return shape;
  }

  // Container append: `x.push_back(arg)` / `x.emplace_back(arg)`.
  for (std::size_t k = 0; k + 3 < eff.size(); ++k) {
    const Token& obj = t[eff[k]];
    if (obj.kind != TokKind::kIdent) continue;
    if (k > 0) {
      const Token& prev = t[eff[k - 1]];
      if (prev.kind == TokKind::kPunct &&
          (prev.text == "." || prev.text == "->" || prev.text == "::"))
        continue;
    }
    const Token& dot = t[eff[k + 1]];
    const Token& meth = t[eff[k + 2]];
    if (dot.kind != TokKind::kPunct || (dot.text != "." && dot.text != "->"))
      continue;
    if (meth.kind != TokKind::kIdent ||
        (meth.text != "push_back" && meth.text != "emplace_back" &&
         meth.text != "insert" && meth.text != "emplace"))
      continue;
    if (!is_punct(t[eff[k + 3]], "(")) continue;
    shape.kind = StmtShape::kAppend;
    shape.target = obj.text;
    shape.target_tok = eff[k];
    shape.rhs_from = k + 4;
    shape.rhs_to = eff.size();
    if (shape.rhs_to > shape.rhs_from &&
        is_punct(t[eff[shape.rhs_to - 1]], ";"))
      --shape.rhs_to;
    if (shape.rhs_to > shape.rhs_from &&
        is_punct(t[eff[shape.rhs_to - 1]], ")"))
      --shape.rhs_to;
    return shape;
  }
  return shape;
}

/// Does this statement reset an arena every view may point into? True
/// for `h.reset()` off a HANDLE and for `thread_scratch().reset()`.
bool resets_arena(const LexedFile& f, const std::vector<std::size_t>& eff,
                  const VarState& state) {
  const auto& t = f.tokens;
  for (std::size_t k = 2; k + 1 < eff.size(); ++k) {
    if (t[eff[k]].kind != TokKind::kIdent || t[eff[k]].text != "reset")
      continue;
    if (!is_punct(t[eff[k + 1]], "(")) continue;
    const Token& dot = t[eff[k - 1]];
    if (dot.kind != TokKind::kPunct || (dot.text != "." && dot.text != "->"))
      continue;
    const Token& recv = t[eff[k - 2]];
    if (recv.kind == TokKind::kIdent) {
      const auto it = state.find(recv.text);
      if (it != state.end() && (it->second & kHandle) != 0) return true;
    } else if (is_punct(recv, ")")) {
      // thread_scratch().reset() — look for the call name.
      for (std::size_t j = 0; j < k; ++j)
        if (is_ident(t[eff[j]], "thread_scratch"))
          return true;
    }
  }
  return false;
}

/// Entry state from the parameter list: `Arena&` params are handles,
/// View/Table/pointer params are (possibly) views.
VarState entry_from_params(const LexedFile& f, const FunctionDef& def) {
  VarState entry;
  const auto& t = f.tokens;
  unsigned pending = 0;
  for (std::size_t i = def.params_begin;
       i < def.params_end && i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == ",") pending = 0;
      else if (tok.text == "*") pending |= kView;
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "Arena") {
      pending |= kHandle;
    } else if (viewish_type_word(tok.text)) {
      pending |= kView;
    } else if (i + 1 < t.size() &&
               (t[i + 1].kind != TokKind::kIdent) && pending != 0) {
      // Identifier followed by non-identifier: the parameter name.
      const Token& next = t[i + 1];
      if (next.kind == TokKind::kPunct &&
          (next.text == "," || next.text == ")" || next.text == "=")) {
        entry[tok.text] |= pending & kHandle ? kHandle : kView;
        pending = 0;
      }
    }
  }
  return entry;
}

/// The transfer function: applies one statement's gen/kill to `state`.
/// When `returns_view_out` is non-null, a `return` of a view-producing
/// expression records the enclosing function name there.
void transfer_stmt(const LexedFile& f, const Stmt& s, VarState& state,
                   const std::set<std::string>& summary,
                   const std::string& def_name,
                   std::set<std::string>* returns_view_out) {
  const std::vector<std::size_t> eff = effective_tokens(f, s.begin, s.end);
  if (eff.empty()) return;
  const auto& t = f.tokens;

  if (is_ident(t[eff[0]], "return")) {
    if (returns_view_out != nullptr &&
        produces_view(f, eff, 1, eff.size(), state, summary))
      returns_view_out->insert(def_name);
    return;
  }

  if (resets_arena(f, eff, state)) {
    for (auto& [name, bits] : state)
      if ((bits & kView) != 0) bits |= kStale;
    return;
  }

  const StmtShape shape = parse_stmt(f, eff);
  switch (shape.kind) {
    case StmtShape::kDecl: {
      unsigned bits = 0;
      if (shape.decl_type == kHandle) {
        bits = kHandle;
      } else if (shape.decl_type == kOwning) {
        bits = kOwning;
      } else {
        const bool tainted =
            produces_view(f, eff, shape.rhs_from, shape.rhs_to, state,
                          summary) ||
            (shape.decl_type == kView &&
             eff_mentions(f, eff, shape.rhs_from, shape.rhs_to, state,
                          kHandle | kView));
        if (tainted || (shape.decl_type == kView && shape.rhs_from == 0))
          bits = kView;
        else if (shape.decl_type == kView)
          bits = 0;  // view type of owning storage (view_of(factor))
      }
      state[shape.target] = bits;  // declaration kills prior facts
      break;
    }
    case StmtShape::kAssign:
    case StmtShape::kAppend: {
      auto it = state.find(shape.target);
      const bool owning = it != state.end() && (it->second & kOwning) != 0;
      if (owning) break;
      const bool tainted = produces_view(f, eff, shape.rhs_from,
                                         shape.rhs_to, state, summary) ||
                           eff_mentions(f, eff, shape.rhs_from, shape.rhs_to,
                                        state, kHandle | kView);
      if (tainted) state[shape.target] |= kView;
      break;
    }
    case StmtShape::kOther:
      break;
  }
}

bool is_member_name(const Project& project, const AnalyzedFile& af,
                    const FunctionDef& def, const std::string& name,
                    bool via_this) {
  if (via_this) return true;
  if (!def.class_name.empty()) {
    const ClassInfo* ci = project.find_class(af, def.class_name);
    if (ci != nullptr && ci->member(name) != nullptr) return true;
  }
  return name.size() > 1 && name.back() == '_';
}

/// Pool-dispatch capture check, flow-insensitive over the whole body.
void check_pool_captures(const LexedFile& f, const FunctionDef& def,
                         const VarState& anywhere, Reporter& rep) {
  const auto& t = f.tokens;
  const std::vector<LambdaRange> lambdas =
      find_lambdas(f, def.body_begin, def.body_end);
  if (lambdas.empty()) return;

  // Lambdas bound to a name: `auto task = [..]{..};`.
  std::map<std::string, const LambdaRange*> bound;
  for (const LambdaRange& lr : lambdas) {
    if (lr.intro >= 2 && is_punct(t[lr.intro - 1], "=") &&
        t[lr.intro - 2].kind == TokKind::kIdent)
      bound[t[lr.intro - 2].text] = &lr;
  }

  // Dispatch sites: pool-ish receiver . run/submit/enqueue/post ( args ).
  for (std::size_t i = def.body_begin; i + 3 < def.body_end; ++i) {
    const Token& recv = t[i];
    if (recv.kind != TokKind::kIdent ||
        recv.text.find("pool") == std::string::npos)
      continue;
    const Token& dot = t[i + 1];
    if (dot.kind != TokKind::kPunct || (dot.text != "." && dot.text != "->"))
      continue;
    const Token& meth = t[i + 2];
    if (meth.kind != TokKind::kIdent || !dispatch_method_name(meth.text))
      continue;
    if (!is_punct(t[i + 3], "(")) continue;
    // Argument range: up to the call's `)` (the body's `}` if unclosed).
    const std::size_t arg_end =
        match_bracket(t, i + 3, def.body_end, "(", ")") - 1;
    // Candidate lambdas: defined inside the args, or bound names used.
    std::vector<const LambdaRange*> cands;
    for (const LambdaRange& lr : lambdas)
      if (lr.intro > i + 3 && lr.intro < arg_end) cands.push_back(&lr);
    for (std::size_t j = i + 4; j < arg_end; ++j) {
      if (t[j].kind != TokKind::kIdent) continue;
      const auto it = bound.find(t[j].text);
      if (it != bound.end()) cands.push_back(it->second);
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    for (const LambdaRange* lr : cands) {
      // Plain identifier scan of the callback body (nested lambdas
      // inside it count too — they run on the pool thread).
      std::string who;
      bool hit = false;
      for (std::size_t j = lr->body_begin; j < lr->body_end; ++j) {
        if (t[j].kind != TokKind::kIdent) continue;
        if (j > lr->body_begin && t[j - 1].kind == TokKind::kPunct &&
            (t[j - 1].text == "." || t[j - 1].text == "->" ||
             t[j - 1].text == "::"))
          continue;
        const auto it = anywhere.find(t[j].text);
        if (it != anywhere.end() &&
            (it->second & (kView | kHandle | kStale)) != 0) {
          who = t[j].text;
          hit = true;
          break;
        }
      }
      if (!hit) continue;
      rep.report(f, t[lr->intro].line, kRule,
                 "arena-backed value '" + who +
                     "' captured by a thread-pool callback; "
                     "thread_scratch() arenas are per-thread and their "
                     "views must not cross a dispatch boundary");
    }
  }
}

}  // namespace

void pass_arena(const Project& project, Reporter& rep) {
  if (!rep.enabled(kRule)) return;

  solve_with_summaries(project, transfer_stmt, entry_from_params,
                       [&](const AnalyzedFile& af, const FunctionDef& def,
                           const std::set<std::string>& summary,
                           const ForwardAnalysis& fa) {
    const LexedFile& f = af.lex;
    fa.replay([&](const Stmt& s, const VarState& state) {
      const std::vector<std::size_t> eff =
          effective_tokens(f, s.begin, s.end);
      if (eff.empty()) return;
      const std::size_t line = f.tokens[eff[0]].line;
      // 1. Use after reset.
      std::string who;
      if (eff_mentions(f, eff, 0, eff.size(), state, kStale, &who)) {
        rep.report(f, line, kRule,
                   "arena-backed view '" + who +
                       "' used after Arena::reset(); the storage it points "
                       "into has been recycled — materialize an owning "
                       "Factor/vector before the reset");
        return;  // one finding per statement
      }
      // 2. View stored into a member.
      const StmtShape shape = parse_stmt(f, eff);
      if ((shape.kind == StmtShape::kAssign ||
           shape.kind == StmtShape::kAppend) &&
          is_member_name(project, af, def, shape.target, shape.via_this) &&
          produces_view(f, eff, shape.rhs_from, shape.rhs_to, state,
                        summary)) {
        rep.report(f, line, kRule,
                   "arena-backed view stored into member '" + shape.target +
                       "'; the member outlives the next Arena::reset() — "
                       "copy into owning storage instead");
      }
    });
    // 3. Pool captures.
    check_pool_captures(f, def, fa.anywhere(), rep);
  });
}

}  // namespace sysuq_analyze
