// lock-order: builds a global lock-acquisition graph across all
// mutex-owning classes and reports
//
//   1. cycles in the acquisition order (potential deadlock: two
//      threads taking the same pair of mutexes in opposite orders),
//   2. a condition_variable wait entered while holding a mutex other
//      than the one the wait releases (the held one stays locked for
//      the whole sleep),
//   3. any mutex held across a thread-pool dispatch, std::thread
//      construction, async launch, or join (the child may need the
//      same lock: instant deadlock under contention).
//
// Unlike arena-escape/log-domain this pass does not run on the CFG:
// RAII guard lifetimes follow brace scopes, so a linear statement walk
// with a scope stack (statement depths from cfg.hpp's
// linear_statements) models exactly when a lock_guard releases. The
// guard declarations and .lock()/.unlock() calls it sees are read by
// lockscope.hpp's LockReader, which the token-level walker shares.
// Acquisition edges are interprocedural through per-root transitive
// acquires-summaries over the name-granular call graph, so
// `lock(a); f();` with `f` locking `b` still yields the edge a -> b.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sysuq_analyze/cfg.hpp"
#include "sysuq_analyze/dataflow.hpp"
#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/lockscope.hpp"
#include "sysuq_analyze/model.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

namespace {

constexpr const char* kRule = "lock-order";

struct Witness {
  const LexedFile* file = nullptr;
  std::size_t line = 0;
};

struct Held {
  std::string mutex;
  std::size_t depth = 0;  ///< statement depth of the acquisition
  bool scoped = true;     ///< pops when the brace scope closes
};

struct WalkCtx {
  const Project* project = nullptr;
  const AnalyzedFile* af = nullptr;
  const FunctionDef* def = nullptr;
  Reporter* rep = nullptr;
  /// Global acquisition graph: from -> to -> first witness.
  std::map<std::string, std::map<std::string, Witness>>* edges = nullptr;
  /// Transitive acquires-summary of this root (may be null on the
  /// summary-collection walk).
  const std::map<std::string, std::set<std::string>>* summary = nullptr;
  /// Direct acquisitions collected on the first walk.
  std::set<std::string>* direct = nullptr;
};

void add_edges(WalkCtx& ctx, const std::vector<Held>& held,
               const std::string& to, const LexedFile& f, std::size_t line) {
  if (ctx.edges == nullptr) return;
  for (const Held& h : held) {
    if (h.mutex == to) continue;
    auto& row = (*ctx.edges)[h.mutex];
    if (row.count(to) == 0) row[to] = Witness{&f, line};
  }
}

/// One statement of the scope walk. Returns via `held`.
void walk_stmt(WalkCtx& ctx, LockReader& locks, const Stmt& s,
               std::vector<Held>& held) {
  const LexedFile& f = ctx.af->lex;
  const auto& t = f.tokens;
  const std::vector<std::size_t> eff = effective_tokens(f, s.begin, s.end);
  if (eff.empty()) return;
  const std::size_t line = t[eff[0]].line;

  // Scope exit: guards acquired deeper than this statement are gone.
  held.erase(std::remove_if(held.begin(), held.end(),
                            [&](const Held& h) {
                              return h.scoped && h.depth > s.depth;
                            }),
             held.end());

  const auto hold = [&](const std::string& mu, bool scoped) {
    add_edges(ctx, held, mu, f, line);
    if (ctx.direct != nullptr) ctx.direct->insert(mu);
    for (const Held& h : held)
      if (h.mutex == mu) return;  // re-entrant spelling; keep one
    held.push_back(Held{mu, s.depth, scoped});
  };

  for (std::size_t k = 0; k < eff.size(); ++k) {
    const Token& tok = t[eff[k]];
    if (tok.kind != TokKind::kIdent) continue;

    // Guard declarations and X.lock() / X.unlock().
    if (const auto ev = locks.read(eff[k], s.end)) {
      for (const std::string& mu : ev->acquired) hold(mu, ev->scoped);
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const Held& h) {
                                  return h.mutex == ev->released;
                                }),
                 held.end());
      while (k + 1 < eff.size() && eff[k + 1] <= ev->last) ++k;
      continue;
    }

    // Method calls on an identifier chain: cv.wait(lk) / pool->run(...) /
    // t.join().
    const bool methodish = k >= 2 && t[eff[k - 1]].kind == TokKind::kPunct &&
                           (t[eff[k - 1]].text == "." ||
                            t[eff[k - 1]].text == "->") &&
                           k + 1 < eff.size() && is_punct(t[eff[k + 1]], "(");
    if (methodish && (tok.text == "wait" || tok.text == "wait_for" ||
                      tok.text == "wait_until")) {
      // First argument: the unique_lock the wait releases.
      std::string released;
      if (k + 2 < eff.size() && t[eff[k + 2]].kind == TokKind::kIdent)
        released = locks.mutex_named_at(eff[k + 2]);
      if (ctx.rep != nullptr) {
        for (const Held& h : held) {
          if (h.mutex == released) continue;
          ctx.rep->report(
              f, line, kRule,
              "condition_variable wait releases '" + released +
                  "' but '" + h.mutex +
                  "' stays locked for the whole sleep; drop it before "
                  "waiting or the sleeping thread blocks every peer");
        }
      }
      continue;
    }
    if (methodish && tok.text == "join") {
      if (ctx.rep != nullptr && !held.empty()) {
        ctx.rep->report(f, line, kRule,
                        "'" + held.front().mutex +
                            "' held across a thread join; the joined "
                            "thread may need that lock to finish — "
                            "release before joining");
      }
      continue;
    }
    if (methodish && dispatch_method_name(tok.text)) {
      const std::string recv = t[eff[k - 2]].text;
      if (recv.find("pool") != std::string::npos && ctx.rep != nullptr &&
          !held.empty()) {
        ctx.rep->report(f, line, kRule,
                        "'" + held.front().mutex +
                            "' held across a thread-pool dispatch; pool "
                            "workers contending for it deadlock against "
                            "the dispatching thread — release first");
      }
      // Fall through: `run` may also be a summarized callee below.
    }

    // std::thread t(...) / async(...) construction under a lock.
    if ((tok.text == "thread" || tok.text == "async" || tok.text == "jthread")
        && ctx.rep != nullptr && !held.empty()) {
      const bool std_qualified = k >= 2 && is_punct(t[eff[k - 1]], "::") &&
                                 is_ident(t[eff[k - 2]], "std");
      if (std_qualified) {
        ctx.rep->report(f, line, kRule,
                        "'" + held.front().mutex +
                            "' held across a std::" + tok.text +
                            " launch; the new thread may need that lock "
                            "immediately — release before spawning");
        continue;
      }
    }

    // Interprocedural edges through the acquires-summary.
    const bool called = k + 1 < eff.size() && is_punct(t[eff[k + 1]], "(") &&
                        !(k >= 2 && is_punct(t[eff[k - 1]], "::") &&
                          t[eff[k - 2]].text == "std");
    if (called && ctx.summary != nullptr && !held.empty() &&
        tok.text != ctx.def->name) {
      const auto it = ctx.summary->find(tok.text);
      if (it != ctx.summary->end())
        for (const std::string& mu : it->second) add_edges(ctx, held, mu, f, line);
    }
  }
}

void walk_def(WalkCtx& ctx) {
  LockReader locks(*ctx.project, *ctx.af, ctx.def->class_name);
  std::vector<Held> held;
  for (const Stmt& s : linear_statements(ctx.af->lex, *ctx.def))
    walk_stmt(ctx, locks, s, held);
}

}  // namespace

void pass_lockorder(const Project& project, const CallGraph& calls,
                    Reporter& rep) {
  if (!rep.enabled(kRule)) return;

  // Phase 1: per-function direct acquisitions, per root.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      acquires;  // root -> fn -> mutexes
  for (const auto& af : project.files) {
    for (const auto& def : af.model.defs) {
      WalkCtx ctx;
      ctx.project = &project;
      ctx.af = &af;
      ctx.def = &def;
      ctx.direct = &acquires[af.lex.root][def.name];
      walk_def(ctx);
    }
  }

  // Phase 2: transitive closure over the name-granular call graph. A
  // function acquires each mutex that any function it reaches acquires:
  // one search per mutex, from its direct acquirers over the callers.
  for (auto& [root, per_fn] : acquires) {
    const NameGraph& callers = calls.root(root).callers;
    std::map<std::string, std::set<std::string>> acquirers;  // mutex -> fns
    for (const auto& [fn, mus] : per_fn)
      for (const std::string& mu : mus) acquirers[mu].insert(fn);
    for (auto& [mu, fns] : acquirers)
      for (const std::string& fn : reachable(callers, std::move(fns)))
        per_fn[fn].insert(mu);
  }

  // Phase 3: edge collection + local violations (waits, dispatches).
  std::map<std::string, std::map<std::string, Witness>> edges;
  for (const auto& af : project.files) {
    const auto& summary = acquires[af.lex.root];
    for (const auto& def : af.model.defs) {
      WalkCtx ctx;
      ctx.project = &project;
      ctx.af = &af;
      ctx.def = &def;
      ctx.rep = &rep;
      ctx.edges = &edges;
      ctx.summary = &summary;
      walk_def(ctx);
    }
  }

  // Phase 4: cycle detection over the acquisition graph. Each cycle is
  // reported once, anchored at the witness of its first edge, with the
  // cycle rotated so its lexicographically smallest mutex leads
  // (deterministic across runs and file orders).
  std::set<std::string> seen_cycles;
  std::vector<std::string> nodes;
  for (const auto& [from, row] : edges) {
    nodes.push_back(from);
    (void)row;
  }
  for (const std::string& start : nodes) {
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    // Bounded DFS: graphs here are tiny; the caps are a safety net.
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          if (path.size() > 8 || seen_cycles.size() > 32) return;
          const auto row = edges.find(node);
          if (row == edges.end()) return;
          for (const auto& [next, wit] : row->second) {
            (void)wit;
            if (next == start) {
              // Only report with the smallest node leading.
              if (*std::min_element(path.begin(), path.end()) != start)
                continue;
              std::string desc = start;
              for (std::size_t i = 1; i < path.size(); ++i)
                desc += " -> " + path[i];
              desc += " -> " + start;
              if (!seen_cycles.insert(desc).second) continue;
              // Anchor at the first edge of the cycle when available.
              const Witness* w = &wit;
              if (path.size() > 1) {
                const auto r0 = edges.find(start);
                if (r0 != edges.end()) {
                  const auto e0 = r0->second.find(path[1]);
                  if (e0 != r0->second.end()) w = &e0->second;
                }
              }
              rep.report(*w->file, w->line, kRule,
                         "potential deadlock: lock-order cycle " + desc +
                             "; pick one global acquisition order and "
                             "stick to it");
              continue;
            }
            if (on_path.count(next) > 0 || next < start) continue;
            path.push_back(next);
            on_path.insert(next);
            dfs(next);
            path.pop_back();
            on_path.erase(next);
          }
        };
    dfs(start);
  }
}

}  // namespace sysuq_analyze
