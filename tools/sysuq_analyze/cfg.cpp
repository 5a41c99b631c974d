#include "sysuq_analyze/cfg.hpp"

#include <string>

namespace sysuq_analyze {

namespace {

constexpr std::size_t kDead = static_cast<std::size_t>(-1);

class CfgBuilder {
 public:
  CfgBuilder(const LexedFile& file, Cfg& cfg, std::vector<Stmt>* linear)
      : f_(file), cfg_(cfg), linear_(linear) {}

  void run(std::size_t body_begin, std::size_t body_end) {
    cur_ = new_block();
    cfg_.exit_block = new_block();
    if (body_begin < body_end && body_begin < f_.tokens.size() &&
        is_punct(f_.tokens[body_begin], "{")) {
      parse_range(body_begin + 1,
                  std::min(body_end, f_.tokens.size()) - 1, 1);
    }
    if (cur_ != kDead) edge(cur_, cfg_.exit_block);
  }

 private:
  const LexedFile& f_;
  Cfg& cfg_;
  std::vector<Stmt>* linear_;
  std::size_t cur_ = kDead;
  struct LoopCtx {
    std::size_t brk;
    std::size_t cont;
  };
  std::vector<LoopCtx> loops_;

  [[nodiscard]] const std::vector<Token>& toks() const { return f_.tokens; }

  std::size_t new_block() {
    cfg_.blocks.emplace_back();
    return cfg_.blocks.size() - 1;
  }
  void edge(std::size_t a, std::size_t b) {
    if (a != kDead) cfg_.blocks[a].succs.push_back(b);
  }
  void append(std::size_t begin, std::size_t end, std::size_t depth) {
    if (begin >= end) return;
    const Stmt s{begin, end, depth};
    cfg_.blocks[cur_].stmts.push_back(s);
    if (linear_ != nullptr) linear_->push_back(s);
  }

  // One past the ';' terminating a simple statement starting at i: the
  // scan is transparent to (), {}, [] nesting (lambda bodies and brace
  // initializers do not end the statement).
  [[nodiscard]] std::size_t semi(std::size_t i, std::size_t e) const {
    int depth = 0;
    for (; i < e; ++i) {
      const Token& t = toks()[i];
      if (t.kind != TokKind::kPunct) continue;
      const std::string& p = t.text;
      if (p == "(" || p == "{" || p == "[") ++depth;
      else if (p == ")" || p == "}" || p == "]") --depth;
      else if (p == ";" && depth <= 0) return i + 1;
    }
    return e;
  }

  // Parses the statement sequence in [b, e) at brace depth `depth`.
  void parse_range(std::size_t b, std::size_t e, std::size_t depth) {
    std::size_t i = b;
    while (i < e && i < toks().size()) {
      const std::size_t next = step(i, e, depth);
      i = next > i ? next : i + 1;  // never stall
    }
  }

  // Parses exactly one statement or control construct at i; returns the
  // index one past it.
  std::size_t step(std::size_t i, std::size_t e, std::size_t depth) {
    const Token& tok = toks()[i];

    if (is_punct(tok, ";")) return i + 1;
    if (is_punct(tok, "{")) {
      const std::size_t close = match_bracket(toks(), i, e, "{", "}");
      parse_range(i + 1, close > i ? close - 1 : e, depth + 1);
      return close;
    }
    if (is_ident(tok, "if")) return parse_if(i, e, depth);
    if (is_ident(tok, "while")) return parse_while(i, e, depth);
    if (is_ident(tok, "for")) return parse_for(i, e, depth);
    if (is_ident(tok, "do")) return parse_do(i, e, depth);
    if (is_ident(tok, "switch")) return parse_switch(i, e, depth);
    if (is_ident(tok, "try") || is_ident(tok, "catch")) {
      // try/catch run sequentially: the catch body is a may-successor
      // of the try body, which a linear layout over-approximates.
      std::size_t j = i + 1;
      while (j < e && !is_punct(toks()[j], "{")) ++j;
      if (j >= e) return e;
      const std::size_t close = match_bracket(toks(), j, e, "{", "}");
      parse_range(j + 1, close > j ? close - 1 : e, depth + 1);
      return close;
    }
    if (is_ident(tok, "case") || is_ident(tok, "default")) {
      std::size_t j = i + 1;
      while (j < e && !is_punct(toks()[j], ":")) ++j;
      return j + 1;
    }
    if (is_ident(tok, "return")) {
      const std::size_t end = semi(i, e);
      append(i, end, depth);
      edge(cur_, cfg_.exit_block);
      cur_ = new_block();  // unreachable continuation
      return end;
    }
    if (is_ident(tok, "break") || is_ident(tok, "continue")) {
      const std::size_t end = semi(i, e);
      append(i, end, depth);
      if (!loops_.empty()) {
        edge(cur_, tok.text == "break" ? loops_.back().brk
                                       : loops_.back().cont);
      } else {
        edge(cur_, cfg_.exit_block);  // stray; be conservative
      }
      cur_ = new_block();
      return end;
    }
    if (is_ident(tok, "else")) return i + 1;  // defensive; if() consumes it

    const std::size_t end = semi(i, e);
    append(i, end, depth);
    return end;
  }

  // Sub-statement of a control construct: one brace block or one step.
  std::size_t parse_sub(std::size_t i, std::size_t e, std::size_t depth) {
    if (i < e && is_punct(toks()[i], "{")) {
      const std::size_t close = match_bracket(toks(), i, e, "{", "}");
      parse_range(i + 1, close > i ? close - 1 : e, depth + 1);
      return close;
    }
    return i < e ? step(i, e, depth) : e;
  }

  // `if [constexpr] ( cond ) sub [else sub]`.
  std::size_t parse_if(std::size_t i, std::size_t e, std::size_t depth) {
    std::size_t j = i + 1;
    if (j < e && is_ident(toks()[j], "constexpr")) ++j;
    if (j >= e || !is_punct(toks()[j], "(")) return i + 1;
    const std::size_t cond_end = match_bracket(toks(), j, e, "(", ")");
    append(i, cond_end, depth);
    const std::size_t head = cur_;

    cur_ = new_block();
    edge(head, cur_);
    const std::size_t after_then = parse_sub(cond_end, e, depth);
    const std::size_t then_exit = cur_;

    std::size_t else_exit = kDead;
    std::size_t next = after_then;
    if (after_then < e && is_ident(toks()[after_then], "else")) {
      cur_ = new_block();
      edge(head, cur_);
      next = parse_sub(after_then + 1, e, depth);
      else_exit = cur_;
    }
    const std::size_t join = new_block();
    if (else_exit == kDead) edge(head, join);
    edge(then_exit, join);
    edge(else_exit, join);
    cur_ = join;
    return next;
  }

  // `while ( cond ) sub`.
  std::size_t parse_while(std::size_t i, std::size_t e, std::size_t depth) {
    std::size_t j = i + 1;
    if (j >= e || !is_punct(toks()[j], "(")) return i + 1;
    const std::size_t cond_end = match_bracket(toks(), j, e, "(", ")");
    const std::size_t header = new_block();
    edge(cur_, header);
    cur_ = header;
    append(i, cond_end, depth);
    const std::size_t after = new_block();
    loops_.push_back({after, header});
    cur_ = new_block();
    edge(header, cur_);
    const std::size_t next = parse_sub(cond_end, e, depth);
    edge(cur_, header);  // back edge
    loops_.pop_back();
    edge(header, after);
    cur_ = after;
    return next;
  }

  // `for ( init ; cond ; inc ) sub` and range-for, header as one stmt.
  // The whole header re-runs on the back edge, which over-approximates
  // (init re-executing) — harmless for may-analyses.
  std::size_t parse_for(std::size_t i, std::size_t e, std::size_t depth) {
    std::size_t j = i + 1;
    if (j >= e || !is_punct(toks()[j], "(")) return i + 1;
    const std::size_t head_end = match_bracket(toks(), j, e, "(", ")");
    const std::size_t header = new_block();
    edge(cur_, header);
    cur_ = header;
    append(i, head_end, depth);
    const std::size_t after = new_block();
    loops_.push_back({after, header});
    cur_ = new_block();
    edge(header, cur_);
    const std::size_t next = parse_sub(head_end, e, depth);
    edge(cur_, header);
    loops_.pop_back();
    edge(header, after);
    cur_ = after;
    return next;
  }

  // `do sub while ( cond ) ;`.
  std::size_t parse_do(std::size_t i, std::size_t e, std::size_t depth) {
    const std::size_t body_entry = new_block();
    edge(cur_, body_entry);
    const std::size_t after = new_block();
    loops_.push_back({after, body_entry});
    cur_ = body_entry;
    std::size_t next = parse_sub(i + 1, e, depth);
    loops_.pop_back();
    if (next < e && is_ident(toks()[next], "while")) {
      std::size_t j = next + 1;
      if (j < e && is_punct(toks()[j], "(")) {
        const std::size_t cond_end = match_bracket(toks(), j, e, "(", ")");
        append(next, cond_end, depth);
        next = cond_end < e && is_punct(toks()[cond_end], ";") ? cond_end + 1
                                                              : cond_end;
      }
    }
    edge(cur_, body_entry);  // back edge
    edge(cur_, after);
    cur_ = after;
    return next;
  }

  // `switch ( x ) { ... }`: the body is laid out linearly (fallthrough
  // shape); the header may also skip it entirely. `break` targets the
  // after-block. Case labels are skipped as no-ops.
  std::size_t parse_switch(std::size_t i, std::size_t e, std::size_t depth) {
    std::size_t j = i + 1;
    if (j >= e || !is_punct(toks()[j], "(")) return i + 1;
    const std::size_t cond_end = match_bracket(toks(), j, e, "(", ")");
    append(i, cond_end, depth);
    if (cond_end >= e || !is_punct(toks()[cond_end], "{")) return cond_end;
    const std::size_t close = match_bracket(toks(), cond_end, e, "{", "}");
    const std::size_t head = cur_;
    const std::size_t after = new_block();
    loops_.push_back({after, loops_.empty() ? after : loops_.back().cont});
    cur_ = new_block();
    edge(head, cur_);
    parse_range(cond_end + 1, close > cond_end ? close - 1 : e, depth + 1);
    loops_.pop_back();
    edge(head, after);
    edge(cur_, after);
    cur_ = after;
    return close;
  }
};

}  // namespace

Cfg build_cfg(const LexedFile& file, const FunctionDef& def) {
  Cfg cfg;
  CfgBuilder(file, cfg, nullptr).run(def.body_begin, def.body_end);
  return cfg;
}

std::vector<Stmt> linear_statements(const LexedFile& file,
                                    const FunctionDef& def) {
  Cfg cfg;
  std::vector<Stmt> out;
  CfgBuilder(file, cfg, &out).run(def.body_begin, def.body_end);
  return out;
}

}  // namespace sysuq_analyze
