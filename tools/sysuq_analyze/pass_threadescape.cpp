// thread-escape: interprocedural race/escape analysis over inferred
// thread roles.
//
// Thread roles are inferred from the dispatch sites the engine actually
// uses: a lambda handed to a pool-dispatch call (pool->run/submit/...),
// a std::thread / std::jthread / std::async construction, or an
// emplace_back onto a thread container runs on a *worker* thread; named
// functions called from inside such lambdas are workers too, closed
// transitively over the name-granular call graph (dataflow.hpp) per
// scan root. Everything else is *owner* code.
//
// With roles in hand the pass flags, per scan root:
//   e1  members reachable from both roles whose writes hold no common
//       lock (the declared sysuq-guarded-by guard when annotated, any
//       lock at all otherwise),
//   e2  worker lambdas that capture by reference yet outlive the
//       enclosing frame (detached, or never joined in the function),
//       and thread-confined locals used inside worker lambdas,
//   e3  calls that do not hold a callee's sysuq-requires locks,
//   e4  sysuq-thread-confined members touched from the wrong role
//       (init-confined members written outside construction).
//
// Like every pass here this is a may-analysis on names, not a C++
// front end: over-approximation is resolved with annotations or
// reasoned allow markers, never by silently skipping code.
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sysuq_analyze/dataflow.hpp"
#include "sysuq_analyze/lockscope.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

namespace {

constexpr const char* kRule = "thread-escape";

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// How a worker lambda reaches its thread.
enum class DispatchKind { kPool, kThread };

struct WorkerLambda {
  LambdaRange range;
  DispatchKind kind = DispatchKind::kPool;
};

/// True when the lambda introducer at `intro` captures anything by
/// reference (`[&]`, `[&x]`, `[=, &x]`...).
bool captures_by_ref(const LexedFile& f, std::size_t intro, std::size_t end) {
  const std::size_t close = match_bracket(f.tokens, intro, end, "[", "]");
  for (std::size_t i = intro + 1; i + 1 < close; ++i)
    if (is_punct(f.tokens[i], "&")) return true;
  return false;
}

/// Local lambda variable: `auto name = [...]`. Returns the name or "".
std::string lambda_local_name(const LexedFile& f, std::size_t intro) {
  const auto& t = f.tokens;
  if (intro < 2) return "";
  if (!is_punct(t[intro - 1], "=")) return "";
  if (t[intro - 2].kind != TokKind::kIdent) return "";
  return t[intro - 2].text;
}

/// Worker lambdas of one definition: lambdas lexically inside the
/// argument list of a dispatch site, or named locals passed to one.
std::vector<WorkerLambda> find_worker_lambdas(const LexedFile& f,
                                              const FunctionDef& def) {
  const auto& t = f.tokens;
  const std::vector<LambdaRange> lambdas =
      find_lambdas(f, def.body_begin, def.body_end);
  if (lambdas.empty()) return {};

  std::map<std::string, std::size_t> named;  // local name -> lambda index
  for (std::size_t li = 0; li < lambdas.size(); ++li) {
    const std::string name = lambda_local_name(f, lambdas[li].intro);
    if (!name.empty()) named[name] = li;
  }

  std::vector<bool> is_worker(lambdas.size(), false);
  std::vector<DispatchKind> kind(lambdas.size(), DispatchKind::kPool);
  const auto mark = [&](std::size_t args_begin, std::size_t args_end,
                        DispatchKind k) {
    for (std::size_t li = 0; li < lambdas.size(); ++li) {
      if (lambdas[li].intro > args_begin && lambdas[li].intro < args_end) {
        is_worker[li] = true;
        kind[li] = k;
      }
    }
    for (std::size_t a = args_begin; a < args_end; ++a) {
      if (t[a].kind != TokKind::kIdent) continue;
      const auto it = named.find(t[a].text);
      if (it != named.end() && lambdas[it->second].intro < args_begin) {
        is_worker[it->second] = true;
        kind[it->second] = k;
      }
    }
  };

  for (std::size_t i = def.body_begin; i < def.body_end && i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) continue;
    const bool methodish = i >= 2 && t[i - 1].kind == TokKind::kPunct &&
                           (t[i - 1].text == "." || t[i - 1].text == "->") &&
                           i + 1 < def.body_end && is_punct(t[i + 1], "(");
    if (methodish) {
      const std::string recv = lower(t[i - 2].text);
      const bool pool_dispatch = dispatch_method_name(tok.text) &&
                                 recv.find("pool") != std::string::npos;
      const bool thread_store =
          (tok.text == "emplace_back" || tok.text == "push_back") &&
          recv.find("thread") != std::string::npos;
      if (pool_dispatch || thread_store) {
        mark(i + 1, match_bracket(t, i + 1, def.body_end, "(", ")"),
             pool_dispatch ? DispatchKind::kPool : DispatchKind::kThread);
      }
      continue;
    }
    // std::thread t(...), std::jthread t{...}, std::async(...).
    if (tok.text == "thread" || tok.text == "jthread" || tok.text == "async") {
      std::size_t open = i + 1;
      if (open < def.body_end && t[open].kind == TokKind::kIdent) ++open;
      if (open >= def.body_end) continue;
      const char* ob = is_punct(t[open], "(") ? "("
                       : is_punct(t[open], "{") ? "{"
                                                : nullptr;
      if (ob == nullptr) continue;
      mark(open,
           match_bracket(t, open, def.body_end, ob, ob[0] == '(' ? ")" : "}"),
           DispatchKind::kThread);
    }
  }

  std::vector<WorkerLambda> out;
  for (std::size_t li = 0; li < lambdas.size(); ++li)
    if (is_worker[li]) out.push_back({lambdas[li], kind[li]});
  return out;
}

/// One recorded member access outside construction.
struct Access {
  const LexedFile* file = nullptr;
  std::size_t line = 0;
  bool write = false;
  bool worker = false;
  bool guard_held = false;  ///< declared guard held (guarded members)
  bool any_held = false;    ///< any lock held at all
};

struct MemberUse {
  bool owner_seen = false;
  bool worker_seen = false;
  std::vector<Access> accesses;
};

/// Key: root \x1f class \x1f member.
using UseMap = std::map<std::string, MemberUse>;

/// A class participates in the cross-role write check (e1) when it has
/// opted into the lock discipline: it owns a mutex or carries member
/// annotations. Role inference is a name-granular over-approximation,
/// so plain single-threaded value types (no mutex, no annotations) stay
/// out of e1 — guard-consistency's completeness rule is what forces the
/// classes that matter to opt in. A *type-level* sysuq-thread-confined
/// class is exempt too: its discipline is one-instance-per-thread
/// (workers get their own via thread_scratch()), so instance-blind role
/// aggregation would conflate distinct instances — the capture check
/// (e2) polices confined instances crossing threads instead.
bool disciplined(const ClassInfo& ci) {
  if (!ci.confined.empty()) return false;
  if (ci.owns_mutex) return true;
  for (const MemberVar& m : ci.members)
    if (!m.guarded_by.empty() || !m.confined.empty()) return true;
  return false;
}

struct WalkCtx {
  const Project& project;
  const AnalyzedFile& af;
  const FunctionDef& def;
  const ClassInfo* ci = nullptr;
  const std::map<std::string, std::set<std::string>>* required = nullptr;
  Reporter& rep;
  UseMap& uses;
};

/// Visits one token range with a fixed thread role, recording member
/// accesses and checking requires-contracts (e3) and confinement (e4).
void walk_range(const WalkCtx& ctx, std::size_t begin, std::size_t end,
                const std::set<std::string>& entry, bool worker,
                const std::vector<WorkerLambda>* skip) {
  const LexedFile& f = ctx.af.lex;
  const auto& t = f.tokens;
  walk_lock_scopes(
      ctx.project, ctx.af, ctx.def.class_name, begin, end, entry,
      [&](std::size_t i, const std::set<std::string>& held) {
        if (skip != nullptr) {
          for (const WorkerLambda& w : *skip)
            if (i >= w.range.intro && i <= w.range.body_end) return;
        }
        const Token& tok = t[i];
        if (tok.kind != TokKind::kIdent) return;

        // e3: every call must hold the callee's sysuq-requires locks.
        const bool called = i + 1 < t.size() && is_punct(t[i + 1], "(") &&
                            tok.text != ctx.def.name;
        if (called && ctx.required != nullptr) {
          const auto it = ctx.required->find(tok.text);
          if (it != ctx.required->end()) {
            for (const std::string& mu : it->second) {
              if (held.count(mu) != 0) continue;
              ctx.rep.report(f, tok.line, kRule,
                             "call to '" + tok.text + "' requires '" + mu +
                                 "' (sysuq-requires) but it is not held at "
                                 "this call site");
            }
          }
        }

        if (ctx.ci == nullptr || !disciplined(*ctx.ci)) return;
        const MemberVar* m = ctx.ci->member(tok.text);
        if (m == nullptr || m->is_mutex) return;
        if (!plain_member_access(f, i)) return;
        if (called) return;  // member functions share names with nothing here
        const bool in_ctor = ctx.def.is_ctor || ctx.def.is_dtor;
        const bool write = member_write_at(f, i);

        // e4: confined members touched from the wrong role.
        if (!m->confined.empty()) {
          if (m->confined == "init") {
            if (write && !in_ctor) {
              ctx.rep.report(f, tok.line, kRule,
                             "member '" + m->name +
                                 "' is thread-confined to init "
                                 "(sysuq-thread-confined) but is written "
                                 "outside construction");
            }
          } else if (m->confined == "owner" && worker) {
            ctx.rep.report(f, tok.line, kRule,
                           "member '" + m->name +
                               "' is thread-confined to the owner thread "
                               "(sysuq-thread-confined) but is accessed from "
                               "a worker-thread context");
          } else if (m->confined == "worker" && !worker && !in_ctor) {
            ctx.rep.report(f, tok.line, kRule,
                           "member '" + m->name +
                               "' is thread-confined to worker threads "
                               "(sysuq-thread-confined) but is accessed from "
                               "owner-thread context");
          }
          return;
        }
        if (m->is_atomic || in_ctor) return;
        if (m->type_text.find("condition_variable") != std::string::npos)
          return;

        const std::string guard =
            m->guarded_by.empty()
                ? ""
                : canonical_annotation(ctx.project, ctx.af, ctx.ci->name,
                                       m->guarded_by);
        UseMap::mapped_type& use =
            ctx.uses[f.root + '\x1f' + ctx.ci->name + '\x1f' + m->name];
        (worker ? use.worker_seen : use.owner_seen) = true;
        use.accesses.push_back({&f, tok.line, write, worker,
                                !guard.empty() && held.count(guard) != 0,
                                !held.empty()});
      });
}

/// e2: by-ref captures escaping the frame, confined locals in workers.
void check_escapes(const Project& project, const AnalyzedFile& af,
                   const FunctionDef& def,
                   const std::vector<WorkerLambda>& workers, Reporter& rep) {
  const LexedFile& f = af.lex;
  const auto& t = f.tokens;

  // Locals of a thread-confined type declared in this body.
  std::map<std::string, std::string> confined_locals;  // name -> type
  for (std::size_t i = def.body_begin; i + 1 < def.body_end; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const ClassInfo* ci = project.find_class(af, t[i].text);
    if (ci == nullptr || ci->confined.empty()) continue;
    std::size_t j = i + 1;
    while (j < def.body_end && (is_punct(t[j], "&") || is_punct(t[j], "*")))
      ++j;
    if (j < def.body_end && t[j].kind == TokKind::kIdent &&
        j + 1 < def.body_end &&
        (is_punct(t[j + 1], ";") || is_punct(t[j + 1], "=") ||
         is_punct(t[j + 1], "(") || is_punct(t[j + 1], "{"))) {
      confined_locals[t[j].text] = t[i].text;
    }
  }

  for (const WorkerLambda& w : workers) {
    const bool by_ref = captures_by_ref(f, w.range.intro, def.body_end);
    const std::size_t line = t[w.range.intro].line;

    if (by_ref && w.kind == DispatchKind::kThread) {
      bool detached = false, joined = false;
      for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
        if (i >= w.range.intro && i <= w.range.body_end) continue;
        if (t[i].kind != TokKind::kIdent) continue;
        if (t[i].text == "detach") detached = true;
        if (t[i].text == "join" || t[i].text == "get") joined = true;
      }
      if (detached) {
        rep.report(f, line, kRule,
                   "worker lambda captures by reference and the thread is "
                   "detached; the captured stack frame dies while the worker "
                   "still runs — capture by value or join the thread");
      } else if (!joined) {
        rep.report(f, line, kRule,
                   "worker lambda captures by reference but this function "
                   "never joins the thread (no join()/get()); captured stack "
                   "state may dangle — capture by value or join before "
                   "returning");
      }
    }

    for (const auto& [name, type] : confined_locals) {
      for (std::size_t i = w.range.body_begin; i < w.range.body_end; ++i) {
        if (t[i].kind == TokKind::kIdent && t[i].text == name &&
            plain_member_access(f, i)) {
          rep.report(f, t[i].line, kRule,
                     "local '" + name + "' of thread-confined type '" + type +
                         "' (sysuq-thread-confined) is used inside a worker "
                         "lambda; give the worker its own instance");
          break;
        }
      }
    }
  }
}

}  // namespace

void pass_threadescape(const Project& project, const CallGraph& calls,
                       Reporter& rep) {
  if (!rep.enabled(kRule)) return;

  const LockContracts contracts = collect_lock_contracts(project);

  // Worker lambdas per definition, and worker function roots: names
  // called from worker lambdas, closed over the call graph per root.
  std::map<const FunctionDef*, std::vector<WorkerLambda>> workers_of;
  std::map<std::string, std::set<std::string>> worker_fns;  // per root
  for (const auto& af : project.files) {
    for (const auto& def : af.model.defs) {
      std::vector<WorkerLambda> w = find_worker_lambdas(af.lex, def);
      if (w.empty()) continue;
      auto& seeds = worker_fns[af.lex.root];
      const auto& t = af.lex.tokens;
      for (const WorkerLambda& wl : w) {
        for (std::size_t i = wl.range.body_begin; i < wl.range.body_end; ++i) {
          if (t[i].kind == TokKind::kIdent && i + 1 < t.size() &&
              is_punct(t[i + 1], "("))
            seeds.insert(t[i].text);
        }
      }
      workers_of.emplace(&def, std::move(w));
    }
  }
  for (auto& [root, fns] : worker_fns)
    fns = reachable(calls.root(root).callees, std::move(fns));

  // Walk every definition in its inferred role; worker lambdas are
  // excluded from the enclosing walk and re-walked as worker code with
  // an empty entry-lock set (locks do not transfer across threads).
  UseMap uses;
  for (const auto& af : project.files) {
    const std::string& root = af.lex.root;
    const auto req_it = contracts.requires_by_root.find(root);
    const auto* required =
        req_it != contracts.requires_by_root.end() ? &req_it->second : nullptr;
    const auto wf_it = worker_fns.find(root);
    for (const auto& def : af.model.defs) {
      const ClassInfo* ci = def.class_name.empty()
                                ? nullptr
                                : project.find_class(af, def.class_name);
      const auto w_it = workers_of.find(&def);
      const std::vector<WorkerLambda>* workers =
          w_it != workers_of.end() ? &w_it->second : nullptr;
      const bool def_is_worker =
          wf_it != worker_fns.end() && wf_it->second.count(def.name) != 0;
      const WalkCtx ctx{project, af, def, ci, required, rep, uses};
      walk_range(ctx, def.body_begin, def.body_end,
                 entry_locks(project, af, def), def_is_worker, workers);
      if (workers == nullptr) continue;
      for (const WorkerLambda& w : *workers)
        walk_range(ctx, w.range.body_begin, w.range.body_end, {},
                   /*worker=*/true, nullptr);
      check_escapes(project, af, def, *workers, rep);
    }
  }

  // e1: members reached from both roles — every write must hold the
  // declared guard (annotated) or some lock (unannotated).
  for (const auto& [key, use] : uses) {
    if (!use.owner_seen || !use.worker_seen) continue;
    const std::size_t c1 = key.find('\x1f');
    const std::size_t c2 = key.find('\x1f', c1 + 1);
    const std::string cls = key.substr(c1 + 1, c2 - c1 - 1);
    const std::string member = key.substr(c2 + 1);
    for (const Access& a : use.accesses) {
      if (!a.write) continue;
      const bool ok = a.guard_held || a.any_held;
      if (ok) continue;
      rep.report(*a.file, a.line, kRule,
                 "member '" + member + "' of '" + cls +
                     "' is written from " +
                     (a.worker ? "a worker thread" : "the owner thread") +
                     " while also reached from " +
                     (a.worker ? "the owner thread" : "worker threads") +
                     " (roles inferred from dispatch sites), and this write "
                     "holds no lock; guard it, make it atomic, or confine it "
                     "with sysuq-thread-confined");
    }
  }
}

}  // namespace sysuq_analyze
