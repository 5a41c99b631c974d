// log-domain: values produced by the log-space kernels (log_total,
// to_log, log_product_into, std::log, ...) live on a different axis
// than linear-domain probabilities, and the two must not meet without
// an explicit conversion. Three shapes are flagged:
//
//   1. a log-domain value passed to SYSUQ_ASSERT_PROB / _VEC (those
//      contracts check [0,1] mass, which a log value never satisfies)
//      without an exp()/from_log() in the argument,
//   2. a log-domain value as a direct operand of linear `*` or `/`
//      (in log space, multiply is `+`; a naked `*` almost always means
//      a forgotten conversion),
//   3. naive `acc += p[i]` accumulation over a probability array in a
//      loop — directs toward kernels::total(), a pairwise sum (a plain
//      left fold up to 32 terms, the two halves summed recursively above
//      that) whose error grows O(log n) in the term count, not O(n): the
//      bug class is mass drift on long summations.
//
// Log-ness travels two ways: through the dataflow lattice (kLog bit,
// strong updates on plain assignment so `x = std::exp(x)` launders),
// and through names — identifiers with a `log_` prefix / `_log` suffix
// (members like log_scale_, log_evidence_) are log-domain by
// convention, which catches flows through members that a local-only
// lattice cannot see. Function return summaries iterate per root in
// dataflow.hpp's solve_with_summaries, as arena-escape's do.
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sysuq_analyze/cfg.hpp"
#include "sysuq_analyze/dataflow.hpp"
#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/model.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

namespace {

constexpr unsigned kLog = 1u;
constexpr unsigned kAcc = 2u;  ///< scalar accumulator initialized to 0

constexpr const char* kRule = "log-domain";

/// Functions whose result is a log-domain value.
bool log_fn(const std::string& n) {
  static const std::set<std::string> kFns = {
      "log",       "log1p",   "log2",          "log10",
      "lgamma",    "to_log",  "log_total",     "log_sum_exp",
      "logsumexp", "log_product", "log_evidence_probability",
      "log_evidence",
  };
  return kFns.count(n) > 0 || n.rfind("log_", 0) == 0;
}

/// Functions converting out of the log domain.
bool exp_fn(const std::string& n) {
  return n == "exp" || n == "expm1" || n == "exp2" || n == "from_log";
}

/// Identifiers that are log-domain by naming convention.
bool log_name(const std::string& n) {
  if (n.rfind("log_", 0) == 0) return true;
  if (n.size() > 4 && n.compare(n.size() - 4, 4, "_log") == 0) return true;
  if (n.size() > 5 && n.compare(n.size() - 5, 5, "_log_") == 0) return true;
  return false;
}

bool type_word(const std::string& w) {
  static const std::set<std::string> kTypes = {
      "double", "float", "int",    "long",   "unsigned", "const",
      "auto",   "size_t", "short", "char",   "bool",     "signed",
  };
  return kTypes.count(w) > 0;
}

/// Does the expression over effective indices [from, to) produce a
/// log-domain value? A call to a log function or summary callee at
/// depth 0, a mentioned kLog variable, or a log-named identifier chain
/// — unless the whole thing is wrapped in an exp-family call.
bool produces_log(const LexedFile& f, const std::vector<std::size_t>& eff,
                  std::size_t from, std::size_t to, const VarState& state,
                  const std::set<std::string>& summary) {
  const auto& t = f.tokens;
  int depth = 0;
  bool saw_log = false;
  for (std::size_t k = from; k < to && k < eff.size(); ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    const bool called = k + 1 < to && k + 1 < eff.size() &&
                        is_punct(t[eff[k + 1]], "(");
    if (called && exp_fn(tok.text)) {
      // Skip the exp(...) call: its contents are laundered.
      int d = 0;
      std::size_t j = k + 1;
      for (; j < to && j < eff.size(); ++j) {
        if (is_punct(t[eff[j]], "(")) ++d;
        else if (is_punct(t[eff[j]], ")") && --d == 0) break;
      }
      k = j;
      continue;
    }
    // Summaries are keyed by bare function name, which is only sound
    // for free functions: `p.entropy()` must not pick up a summary
    // recorded for some other class's entropy(). Member calls skip the
    // summary lookup (log_fn naming still applies).
    const bool member_call =
        k > from && t[eff[k - 1]].kind == TokKind::kPunct &&
        (t[eff[k - 1]].text == "." || t[eff[k - 1]].text == "->");
    if (called && (log_fn(tok.text) ||
                   (!member_call && summary.count(tok.text) > 0))) {
      // Exponent/expectation exemption: `k * std::log(p)` (log of a
      // power) and `v * std::log(v)` (entropy terms) are intentional
      // log math whose product is linear-domain — the scaled call does
      // not taint. A bare `std::log(p)` with no adjacent `*`/`/` does.
      std::size_t head = k;
      while (head >= 2 && t[eff[head - 1]].kind == TokKind::kPunct &&
             (t[eff[head - 1]].text == "::" || t[eff[head - 1]].text == "." ||
              t[eff[head - 1]].text == "->") &&
             t[eff[head - 2]].kind == TokKind::kIdent)
        head -= 2;
      int d = 0;
      std::size_t close = to;
      for (std::size_t j = k + 1; j < to && j < eff.size(); ++j) {
        if (is_punct(t[eff[j]], "(")) ++d;
        else if (is_punct(t[eff[j]], ")") && --d == 0) {
          close = j;
          break;
        }
      }
      const bool scaled_before =
          head > from && (is_punct(t[eff[head - 1]], "*") ||
                          is_punct(t[eff[head - 1]], "/"));
      const bool scaled_after =
          close + 1 < to && close + 1 < eff.size() &&
          (is_punct(t[eff[close + 1]], "*") ||
           is_punct(t[eff[close + 1]], "/"));
      if (scaled_before || scaled_after) {
        k = close;
        continue;
      }
      saw_log = true;
      continue;
    }
    if (log_name(tok.text)) {
      saw_log = true;
      continue;
    }
    const bool qualified =
        k > from && t[eff[k - 1]].kind == TokKind::kPunct &&
        (t[eff[k - 1]].text == "." || t[eff[k - 1]].text == "->" ||
         t[eff[k - 1]].text == "::");
    if (!qualified) {
      const auto it = state.find(tok.text);
      if (it != state.end() && (it->second & kLog) != 0) saw_log = true;
    }
  }
  return saw_log;
}

/// Plain `name = rhs;` assignment target, or "" when the statement is
/// anything else (declarations return the declared name too).
struct Target {
  std::string name;
  std::size_t rhs_from = 0;
  std::size_t rhs_to = 0;
  bool strong = false;  ///< plain `x = ...`: replace, don't join
  bool decl_scalar_zero = false;
};

Target find_target(const LexedFile& f, const std::vector<std::size_t>& eff) {
  Target tg;
  const auto& t = f.tokens;
  if (eff.empty()) return tg;
  if (t[eff[0]].kind == TokKind::kIdent) {
    const std::string& lead = t[eff[0]].text;
    if (lead == "return" || lead == "if" || lead == "while" ||
        lead == "for" || lead == "switch")
      return tg;
  }
  int depth = 0;
  std::size_t eq = eff.size();
  bool plain_eq = false;
  for (std::size_t k = 0; k < eff.size(); ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (depth == 0 && (p == "=" || p == "+=" || p == "-=")) {
        eq = k;
        plain_eq = p == "=";
        break;
      }
    }
  }
  if (eq == eff.size()) return tg;
  // LHS must be a bare identifier chain (optionally typed decl).
  std::size_t words = 0, last = eff.size();
  for (std::size_t k = 0; k < eq; ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "[" || tok.text == "." || tok.text == "->")
        return tg;  // subscript / member write: weak, skip
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (k > 0 && is_punct(t[eff[k - 1]], "::")) continue;
    ++words;
    last = k;
  }
  if (last == eff.size()) return tg;
  tg.name = t[eff[last]].text;
  tg.rhs_from = eq + 1;
  tg.rhs_to = eff.size();
  if (tg.rhs_to > tg.rhs_from && is_punct(t[eff[tg.rhs_to - 1]], ";"))
    --tg.rhs_to;
  tg.strong = plain_eq;
  if (words >= 2 && plain_eq) {
    // Declaration: `double acc = 0;` marks a floating accumulator
    // (integer counters are exact; only float sums drift).
    bool scalar = false;
    for (std::size_t k = 0; k < last; ++k)
      if (t[eff[k]].kind == TokKind::kIdent &&
          (t[eff[k]].text == "double" || t[eff[k]].text == "float"))
        scalar = true;
    if (scalar && tg.rhs_to == tg.rhs_from + 1) {
      const Token& init = t[eff[tg.rhs_from]];
      if (init.kind == TokKind::kNumber &&
          (init.text == "0" || init.text == "0.0" || init.text == "0."))
        tg.decl_scalar_zero = true;
    }
  }
  return tg;
}

void transfer_log(const LexedFile& f, const Stmt& s, VarState& state,
                  const std::set<std::string>& summary,
                  const std::string& def_name,
                  std::set<std::string>* summary_out) {
  const std::vector<std::size_t> eff = effective_tokens(f, s.begin, s.end);
  if (eff.empty()) return;
  const auto& t = f.tokens;
  if (is_ident(t[eff[0]], "return")) {
    if (summary_out != nullptr &&
        produces_log(f, eff, 1, eff.size(), state, summary))
      summary_out->insert(def_name);
    return;
  }
  const Target tg = find_target(f, eff);
  if (tg.name.empty()) return;
  const bool logness =
      produces_log(f, eff, tg.rhs_from, tg.rhs_to, state, summary);
  unsigned& bits = state[tg.name];
  if (tg.strong) {
    bits = (logness ? kLog : 0u) | (tg.decl_scalar_zero ? kAcc : 0u);
  } else if (logness) {
    bits |= kLog;
  }
}

/// Is the operand chain touching `*`/`/` at effective index `op`
/// log-domain? `dir` = -1 scans left, +1 scans right.
bool operand_log(const LexedFile& f, const std::vector<std::size_t>& eff,
                 std::size_t op, int dir, const VarState& state,
                 const std::set<std::string>& summary) {
  const auto& t = f.tokens;
  std::ptrdiff_t k = static_cast<std::ptrdiff_t>(op) + dir;
  const auto tok_at = [&](std::ptrdiff_t i) -> const Token* {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(eff.size())) return nullptr;
    return &t[eff[static_cast<std::size_t>(i)]];
  };
  const Token* tok = tok_at(k);
  if (tok == nullptr) return false;
  if (dir < 0) {
    // Walk back through `)`-closed calls / subscripts to the head.
    if (tok->kind == TokKind::kPunct &&
        (tok->text == ")" || tok->text == "]")) {
      const std::string close = tok->text;
      const std::string open = close == ")" ? "(" : "[";
      int d = 0;
      for (; k >= 0; --k) {
        const Token* c = tok_at(k);
        if (c == nullptr) break;
        if (c->kind == TokKind::kPunct && c->text == close) ++d;
        else if (c->kind == TokKind::kPunct && c->text == open && --d == 0) {
          --k;
          break;
        }
      }
      const Token* callee = tok_at(k);
      // Only a real call gets the callee treatment; a subscript head
      // (`sample[lo]`) must not match a function summary of the same
      // name. An inline log call (`std::log(x) * y`) is deliberately
      // NOT a violation operand: writing the call next to the operator
      // is the exponent rule in plain sight. The bug class is a log
      // value whose tag got lost — a named variable or a value routed
      // through a function boundary (summary).
      if (close == ")" && callee != nullptr &&
          callee->kind == TokKind::kIdent) {
        if (exp_fn(callee->text) || log_fn(callee->text)) return false;
        const Token* before = tok_at(k - 1);
        const bool member_call = before != nullptr &&
                                 before->kind == TokKind::kPunct &&
                                 (before->text == "." || before->text == "->");
        if (!member_call && summary.count(callee->text) > 0) return true;
      }
      // An array subscript head falls through to the chain walk below.
      tok = callee;
    }
    // Identifier chain `a.b.c` leftwards.
    while (tok != nullptr && tok->kind == TokKind::kIdent) {
      if (log_name(tok->text)) return true;
      const Token* prev = tok_at(k - 1);
      const bool qualified = prev != nullptr &&
                             prev->kind == TokKind::kPunct &&
                             (prev->text == "." || prev->text == "->" ||
                              prev->text == "::");
      if (!qualified) {
        const auto it = state.find(tok->text);
        return it != state.end() && (it->second & kLog) != 0;
      }
      k -= 2;
      tok = tok_at(k);
    }
    return false;
  }
  // dir > 0: skip unary minus/plus, then a call or identifier chain.
  while (tok != nullptr && tok->kind == TokKind::kPunct &&
         (tok->text == "-" || tok->text == "+" || tok->text == "(")) {
    ++k;
    tok = tok_at(k);
  }
  bool head = true;
  bool via_member = false;
  while (tok != nullptr && tok->kind == TokKind::kIdent) {
    const Token* next = tok_at(k + 1);
    const bool called = next != nullptr && is_punct(*next, "(");
    if (called && (exp_fn(tok->text) || log_fn(tok->text))) return false;
    if (called && !via_member && summary.count(tok->text) > 0) return true;
    if (log_name(tok->text)) return true;
    if (head) {
      const auto it = state.find(tok->text);
      if (it != state.end() && (it->second & kLog) != 0) return true;
    }
    head = false;
    if (next != nullptr && next->kind == TokKind::kPunct &&
        (next->text == "." || next->text == "->" || next->text == "::")) {
      via_member = next->text != "::";
      k += 2;
      tok = tok_at(k);
      continue;
    }
    break;
  }
  return false;
}

bool binary_mul_context(const LexedFile& f,
                        const std::vector<std::size_t>& eff, std::size_t op) {
  const auto& t = f.tokens;
  if (op == 0 || op + 1 >= eff.size()) return false;
  const Token& prev = t[eff[op - 1]];
  const Token& next = t[eff[op + 1]];
  // Left of a binary `*`/`/` is a value-ending token; `double* p`,
  // `View* v` and `*p` deref are not.
  const bool lhs_value =
      prev.kind == TokKind::kNumber ||
      (prev.kind == TokKind::kIdent && !type_word(prev.text) &&
       prev.text != "operator") ||
      (prev.kind == TokKind::kPunct &&
       (prev.text == ")" || prev.text == "]"));
  const bool rhs_value =
      next.kind == TokKind::kNumber || next.kind == TokKind::kIdent ||
      (next.kind == TokKind::kPunct &&
       (next.text == "(" || next.text == "-" || next.text == "+"));
  return lhs_value && rhs_value;
}

}  // namespace

void pass_logdomain(const Project& project, Reporter& rep) {
  if (!rep.enabled(kRule)) return;

  solve_with_summaries(project, transfer_log, nullptr,
                       [&](const AnalyzedFile& af, const FunctionDef& def,
                           const std::set<std::string>& summary,
                           const ForwardAnalysis& fa) {
    const LexedFile& f = af.lex;
    const auto& t = f.tokens;

    // Loop nesting by source order: a `for`/`while`/`do` header at
    // depth d puts subsequent deeper statements inside a loop.
    const std::vector<Stmt> linear = linear_statements(f, def);
    std::map<std::size_t, char> in_loop;  // stmt.begin -> inside-loop?
    {
      std::vector<std::size_t> loop_depths;
      for (const Stmt& s : linear) {
        while (!loop_depths.empty() && s.depth <= loop_depths.back())
          loop_depths.pop_back();
        in_loop[s.begin] = loop_depths.empty() ? 0 : 1;
        if (s.begin < t.size() && t[s.begin].kind == TokKind::kIdent &&
            (t[s.begin].text == "for" || t[s.begin].text == "while" ||
             t[s.begin].text == "do"))
          loop_depths.push_back(s.depth);
      }
    }

    fa.replay([&](const Stmt& s, const VarState& state) {
      const std::vector<std::size_t> eff = effective_tokens(f, s.begin, s.end);
      if (eff.empty()) return;
      const std::size_t line = t[eff[0]].line;

      // 1. Log-domain value inside a linear-probability contract.
      for (std::size_t k = 0; k + 1 < eff.size(); ++k) {
        const Token& tok = t[eff[k]];
        if (tok.kind != TokKind::kIdent) continue;
        if (tok.text != "SYSUQ_ASSERT_PROB" &&
            tok.text != "SYSUQ_ASSERT_PROB_VEC")
          continue;
        if (!is_punct(t[eff[k + 1]], "(")) continue;
        int d = 0;
        std::size_t close = eff.size();
        for (std::size_t j = k + 1; j < eff.size(); ++j) {
          if (is_punct(t[eff[j]], "(")) ++d;
          else if (is_punct(t[eff[j]], ")") && --d == 0) {
            close = j;
            break;
          }
        }
        if (produces_log(f, eff, k + 2, close, state, summary)) {
          rep.report(f, line, kRule,
                     "log-domain value passed to " + tok.text +
                         "; the contract checks linear [0,1] mass — "
                         "convert with std::exp()/from_log() first");
        }
        k = close;
      }

      // 2. Log-domain operand of linear `*` / `/`.
      for (std::size_t k = 1; k + 1 < eff.size(); ++k) {
        const Token& tok = t[eff[k]];
        if (tok.kind != TokKind::kPunct ||
            (tok.text != "*" && tok.text != "/"))
          continue;
        if (!binary_mul_context(f, eff, k)) continue;
        if (operand_log(f, eff, k, -1, state, summary) ||
            operand_log(f, eff, k, +1, state, summary)) {
          rep.report(f, line, kRule,
                     "log-domain value used as a `" + tok.text +
                         "` operand; in log space multiplication is "
                         "addition — exp()/from_log() before linear "
                         "arithmetic, or stay in log space with `+`");
          break;
        }
      }

      // 3. Naive accumulation over an indexed array in a loop. Only a
      // BARE indexed read fires (`acc += p[i]`): any depth-0 operator
      // in the added term means the loop is doing its own numerics —
      // a Neumaier compensation term like `(sum - t) + p[i]` must not
      // be told to use the helper it implements.
      const Target tg = find_target(f, eff);
      if (!tg.name.empty() && !tg.strong && in_loop[s.begin] != 0) {
        const auto it = state.find(tg.name);
        const bool acc = it != state.end() && (it->second & kAcc) != 0;
        bool indexed = false, composite = false;
        int d = 0;
        for (std::size_t k = tg.rhs_from; k < tg.rhs_to; ++k) {
          const Token& rt = t[eff[k]];
          if (rt.kind != TokKind::kPunct) continue;
          const std::string& ptxt = rt.text;
          if (ptxt == "[" || ptxt == "(" || ptxt == "{") {
            if (ptxt == "[" && d == 0) indexed = true;
            if (ptxt == "(" && d == 0) composite = true;
            ++d;
          } else if (ptxt == "]" || ptxt == ")" || ptxt == "}") {
            --d;
          } else if (d == 0 && (ptxt == "+" || ptxt == "-" || ptxt == "*" ||
                                ptxt == "/" || ptxt == "%" || ptxt == "?")) {
            composite = true;
          }
        }
        if (acc && indexed && !composite) {
          rep.report(f, line, kRule,
                     "naive `" + tg.name +
                         " +=` accumulation over a probability array; "
                         "use kernels::total(), a pairwise sum whose "
                         "error grows O(log n), not O(n) (mass drift on "
                         "long summations)");
        }
      }
    });
  });
}

}  // namespace sysuq_analyze
