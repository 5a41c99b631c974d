#include "sysuq_analyze/dataflow.hpp"

#include <algorithm>
#include <deque>

namespace sysuq_analyze {

bool join_states(VarState& into, const VarState& from) {
  bool grew = false;
  for (const auto& [name, bits] : from) {
    unsigned& cur = into[name];
    if ((cur | bits) != cur) {
      cur |= bits;
      grew = true;
    }
  }
  return grew;
}

ForwardAnalysis::ForwardAnalysis(const Cfg& cfg, VarState entry,
                                 Transfer transfer)
    : cfg_(cfg), transfer_(std::move(transfer)), in_(cfg.blocks.size()) {
  if (cfg_.blocks.empty()) return;
  in_[0] = std::move(entry);
  std::deque<std::size_t> worklist;
  std::vector<char> queued(cfg_.blocks.size(), 0);
  worklist.push_back(0);
  queued[0] = 1;
  while (!worklist.empty()) {
    const std::size_t b = worklist.front();
    worklist.pop_front();
    queued[b] = 0;
    VarState out = in_[b];
    for (const Stmt& s : cfg_.blocks[b].stmts) transfer_(s, out);
    for (const std::size_t succ : cfg_.blocks[b].succs) {
      if (join_states(in_[succ], out) && !queued[succ]) {
        worklist.push_back(succ);
        queued[succ] = 1;
      }
    }
  }
}

void ForwardAnalysis::replay(
    const std::function<void(const Stmt&, const VarState&)>& visit) const {
  for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
    VarState state = in_[b];
    for (const Stmt& s : cfg_.blocks[b].stmts) {
      visit(s, state);
      transfer_(s, state);
    }
  }
}

VarState ForwardAnalysis::anywhere() const {
  VarState all;
  for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
    VarState state = in_[b];
    join_states(all, state);
    for (const Stmt& s : cfg_.blocks[b].stmts) {
      transfer_(s, state);
      join_states(all, state);
    }
  }
  return all;
}

CallGraph build_call_graph(const Project& project) {
  CallGraph cg;
  for (const auto& af : project.files) {
    auto& per_root = cg.callees_by_root[af.lex.root];
    const auto& t = af.lex.tokens;
    for (const auto& def : af.model.defs) {
      auto& callees = per_root[def.name];
      for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
        if (t[i].kind == TokKind::kIdent && is_punct(t[i + 1], "("))
          callees.insert(t[i].text);
      }
    }
  }
  return cg;
}

std::size_t lambda_end(const LexedFile& f, std::size_t i, std::size_t limit) {
  const auto& t = f.tokens;
  if (i >= limit || !is_punct(t[i], "[")) return i;
  // The introducer brackets, then an optional parameter list.
  std::size_t k = match_bracket(t, i, limit, "[", "]");
  if (k < limit && is_punct(t[k], "("))
    k = match_bracket(t, k, limit, "(", ")");
  // Optional specifiers (mutable, noexcept, -> ret) up to the body '{'.
  while (k < limit && !is_punct(t[k], "{")) {
    if (is_punct(t[k], ";") || is_punct(t[k], ")") || is_punct(t[k], ","))
      return i;  // not a lambda (array subscript etc.)
    ++k;
  }
  if (k >= limit) return i;
  // Body braces.
  int bd = 0;
  for (; k < limit; ++k) {
    if (is_punct(t[k], "{")) ++bd;
    else if (is_punct(t[k], "}") && --bd == 0) return k + 1;
  }
  return i;
}

std::vector<std::size_t> effective_tokens(const LexedFile& f,
                                          std::size_t begin,
                                          std::size_t end) {
  std::vector<std::size_t> out;
  for (std::size_t i = begin; i < end && i < f.tokens.size(); ++i) {
    const std::size_t past = lambda_end(f, i, end);
    if (past != i) {
      i = past - 1;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

std::vector<LambdaRange> find_lambdas(const LexedFile& f, std::size_t begin,
                                      std::size_t end) {
  std::vector<LambdaRange> out;
  const auto& t = f.tokens;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t past = lambda_end(f, i, end);
    if (past == i) continue;
    // Body range: tokens between the body braces.
    std::size_t open = i;
    int bd = 0;
    for (std::size_t k = i; k < past; ++k) {
      if (is_punct(t[k], "{")) {
        open = k;
        bd = 1;
        break;
      }
    }
    if (bd == 1) out.push_back({i, open + 1, past > 0 ? past - 1 : open + 1});
    i = past - 1;  // outermost only
  }
  return out;
}

bool mentions_fact(const LexedFile& f, std::size_t begin, std::size_t end,
                   const VarState& state, unsigned mask) {
  const auto& t = f.tokens;
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (i > begin && t[i - 1].kind == TokKind::kPunct &&
        (t[i - 1].text == "." || t[i - 1].text == "->" ||
         t[i - 1].text == "::"))
      continue;
    const auto it = state.find(t[i].text);
    if (it != state.end() && (it->second & mask) != 0) return true;
  }
  return false;
}

}  // namespace sysuq_analyze
