#include "sysuq_analyze/dataflow.hpp"

#include <deque>
#include <utility>

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
  // A block is processed the first time an edge reaches it, even when
  // that edge brings no facts: the facts it generates must flow on.
  std::vector<char> reached(cfg_.blocks.size(), 0);
  worklist.push_back(0);
  queued[0] = 1;
  reached[0] = 1;
  while (!worklist.empty()) {
    const std::size_t b = worklist.front();
    worklist.pop_front();
    queued[b] = 0;
    VarState out = in_[b];
    for (const Stmt& s : cfg_.blocks[b].stmts) transfer_(s, out);
    for (const std::size_t succ : cfg_.blocks[b].succs) {
      const bool grew = join_states(in_[succ], out);
      if ((grew || !reached[succ]) && !queued[succ]) {
        worklist.push_back(succ);
        queued[succ] = 1;
      }
      reached[succ] = 1;
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

void solve_with_summaries(const Project& project, SummaryTransfer transfer,
                          EntryState entry, const SummaryReport& report) {
  struct Unit {
    const AnalyzedFile* af;
    const FunctionDef* def;
    Cfg cfg;
    VarState entry;
  };
  std::vector<Unit> units;
  for (const auto& af : project.files)
    for (const auto& def : af.model.defs)
      units.push_back({&af, &def, build_cfg(af.lex, def),
                       entry != nullptr ? entry(af.lex, def) : VarState{}});

  const auto solve = [transfer](const Unit& u,
                                const std::set<std::string>& summary,
                                std::set<std::string>* summary_out) {
    return ForwardAnalysis(
        u.cfg, u.entry, [transfer, &u, &summary, summary_out](
                            const Stmt& s, VarState& st) {
          transfer(u.af->lex, s, st, summary, u.def->name, summary_out);
        });
  };

  // Per-root summaries to their fixpoint: callees defined later, or in
  // other files of the root, still propagate.
  std::map<std::string, std::set<std::string>> summaries;
  for (bool grew = true; grew;) {
    grew = false;
    for (const Unit& u : units) {
      std::set<std::string>& summary = summaries[u.af->lex.root];
      const std::size_t before = summary.size();
      solve(u, summary, &summary);
      grew = grew || summary.size() != before;
    }
  }

  for (const Unit& u : units) {
    const std::set<std::string>& summary = summaries[u.af->lex.root];
    report(*u.af, *u.def, summary, solve(u, summary, nullptr));
  }
}

const CallGraph::Edges& CallGraph::root(const std::string& root) const {
  static const Edges kNone;
  const auto it = by_root.find(root);
  return it != by_root.end() ? it->second : kNone;
}

CallGraph build_call_graph(const Project& project) {
  CallGraph cg;
  for (const auto& af : project.files) {
    auto& edges = cg.by_root[af.lex.root];
    const auto& t = af.lex.tokens;
    for (const auto& def : af.model.defs) {
      auto& callees = edges.callees[def.name];
      for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
        if (t[i].kind == TokKind::kIdent && is_punct(t[i + 1], "(")) {
          callees.insert(t[i].text);
          edges.callers[t[i].text].insert(def.name);
        }
      }
    }
  }
  return cg;
}

std::set<std::string> reachable(const NameGraph& edges,
                                std::set<std::string> seeds) {
  std::vector<std::string> todo(seeds.begin(), seeds.end());
  while (!todo.empty()) {
    const auto it = edges.find(todo.back());
    todo.pop_back();
    if (it == edges.end()) continue;
    for (const std::string& next : it->second)
      if (seeds.insert(next).second) todo.push_back(next);
  }
  return seeds;
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

}  // namespace sysuq_analyze
