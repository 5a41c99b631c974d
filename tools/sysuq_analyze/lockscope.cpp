#include "sysuq_analyze/lockscope.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace sysuq_analyze {

namespace {

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  const std::string& p = t.text;
  return p == "=" || p == "+=" || p == "-=" || p == "*=" || p == "/=" ||
         p == "%=" || p == "&=" || p == "|=" || p == "^=" || p == "<<=" ||
         p == ">>=" || p == "++" || p == "--";
}

bool is_mutating_call(const std::string& name) {
  return name == "clear" || name == "insert" || name == "erase" ||
         name == "emplace" || name == "emplace_back" || name == "push_back" ||
         name == "pop_back" || name == "resize" || name == "reserve" ||
         name == "assign";
}

bool lock_tag(const std::string& word) {
  return word == "adopt_lock" || word == "defer_lock" || word == "try_to_lock";
}

/// One held lock on the scope stack.
struct HeldLock {
  std::string mutex;
  int depth = 0;      ///< brace depth at acquisition
  bool scoped = true; ///< pops when its brace scope closes
};

}  // namespace

bool guard_type_name(const std::string& n) {
  return n == "lock_guard" || n == "unique_lock" || n == "scoped_lock" ||
         n == "shared_lock";
}

bool dispatch_method_name(const std::string& n) {
  return n == "run" || n == "submit" || n == "enqueue" || n == "post" ||
         n == "dispatch";
}

std::string canonical_mutex_at(const Project& project, const AnalyzedFile& af,
                               const std::string& class_name,
                               std::size_t last) {
  const auto& t = af.lex.tokens;
  if (last >= t.size()) return "";
  std::vector<std::string> chain;
  std::ptrdiff_t k = static_cast<std::ptrdiff_t>(last);
  while (k >= 0) {
    const Token& tok = t[static_cast<std::size_t>(k)];
    if (tok.kind != TokKind::kIdent) break;
    chain.push_back(tok.text);
    if (k < 2) break;
    const Token& link = t[static_cast<std::size_t>(k - 1)];
    if (link.kind != TokKind::kPunct ||
        (link.text != "." && link.text != "->" && link.text != "::"))
      break;
    k -= 2;
  }
  std::reverse(chain.begin(), chain.end());
  if (!chain.empty() && chain.front() == "this") chain.erase(chain.begin());
  if (chain.empty()) return "";
  const std::string& name = chain.back();
  if (chain.size() == 1)
    return canonical_annotation(project, af, class_name, name);
  std::string joined;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) joined += ".";
    joined += chain[i];
  }
  return joined;
}

std::string canonical_annotation(const Project& project,
                                 const AnalyzedFile& af,
                                 const std::string& class_name,
                                 const std::string& spelled) {
  if (spelled.empty()) return "";
  if (spelled.find("::") != std::string::npos ||
      spelled.find('.') != std::string::npos)
    return spelled;  // already qualified
  const bool memberish =
      (!class_name.empty() &&
       [&] {
         const ClassInfo* ci = project.find_class(af, class_name);
         return ci != nullptr && ci->member(spelled) != nullptr;
       }()) ||
      spelled.back() == '_';
  if (memberish && !class_name.empty()) return class_name + "::" + spelled;
  if (memberish) return af.lex.module_name + "::" + spelled;
  return spelled;
}

LockReader::LockReader(const Project& project, const AnalyzedFile& af,
                       const std::string& class_name)
    : project_(project), af_(af), class_name_(class_name) {}

std::string LockReader::mutex_named_at(std::size_t i) const {
  const auto g = guards_.find(af_.lex.tokens[i].text);
  return g != guards_.end() ? g->second
                            : canonical_mutex_at(project_, af_, class_name_, i);
}

std::optional<LockEvent> LockReader::read(std::size_t i, std::size_t end) {
  const auto& t = af_.lex.tokens;
  const Token& tok = t[i];
  if (tok.kind != TokKind::kIdent) return std::nullopt;

  // X.lock() / X.unlock() on a guard variable or a mutex chain.
  if ((tok.text == "lock" || tok.text == "unlock") && i >= 2 &&
      (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
      i + 1 < end && is_punct(t[i + 1], "(")) {
    LockEvent ev;
    ev.last = i;
    ev.scoped = guards_.count(t[i - 2].text) != 0;
    const std::string mu = mutex_named_at(i - 2);
    if (mu.empty()) return ev;
    if (tok.text == "lock") ev.acquired.push_back(mu);
    else ev.released = mu;
    return ev;
  }

  // Guard declaration: Type[<...>] name(args).
  if (!guard_type_name(tok.text)) return std::nullopt;
  std::size_t j = i + 1;
  if (j < end && is_punct(t[j], "<")) j = match_bracket(t, j, end, "<", ">");
  if (j + 1 >= end || t[j].kind != TokKind::kIdent ||
      !is_punct(t[j + 1], "("))
    return std::nullopt;
  // Arguments: a top-level comma split; each argument's trailing
  // identifier is a lock tag or ends the chain naming a mutex.
  LockEvent ev;
  ev.last = end - 1;
  std::vector<std::size_t> arg_ends;
  int d = 0;
  std::size_t arg_last = 0;
  bool have_arg = false;
  for (std::size_t a = j + 1; a < end; ++a) {
    const Token& at = t[a];
    if (is_punct(at, "(")) {
      ++d;
    } else if (is_punct(at, ")")) {
      if (--d == 0) {
        if (have_arg) arg_ends.push_back(arg_last);
        ev.last = a;
        break;
      }
    } else if (is_punct(at, ",") && d == 1) {
      if (have_arg) arg_ends.push_back(arg_last);
      have_arg = false;
    } else if (d == 1 && at.kind == TokKind::kIdent) {
      arg_last = a;
      have_arg = true;
    }
  }
  // The tag follows the mutex, so look for defer_lock before acquiring.
  const bool deferred =
      std::any_of(arg_ends.begin(), arg_ends.end(),
                  [&](std::size_t a) { return t[a].text == "defer_lock"; });
  for (const std::size_t a : arg_ends) {
    if (lock_tag(t[a].text)) continue;
    const std::string mu = canonical_mutex_at(project_, af_, class_name_, a);
    if (mu.empty()) continue;
    guards_[t[j].text] = mu;
    if (!deferred) ev.acquired.push_back(mu);
  }
  return ev;
}

void walk_lock_scopes(
    const Project& project, const AnalyzedFile& af,
    const std::string& class_name, std::size_t begin, std::size_t end,
    const std::set<std::string>& entry_held,
    const std::function<void(std::size_t, const std::set<std::string>&)>&
        visit) {
  const auto& t = af.lex.tokens;
  LockReader reader(project, af, class_name);
  std::vector<HeldLock> held;
  for (const std::string& mu : entry_held)
    held.push_back({mu, 0, /*scoped=*/false});
  int depth = 0;
  std::set<std::string> cur = entry_held;
  const auto release = [&](const auto& pred) {
    const auto gone = std::remove_if(held.begin(), held.end(), pred);
    if (gone == held.end()) return;
    held.erase(gone, held.end());
    cur.clear();
    for (const HeldLock& h : held) cur.insert(h.mutex);
  };
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (const std::optional<LockEvent> ev = reader.read(i, end)) {
      for (std::size_t v = i; v <= ev->last; ++v) visit(v, cur);
      i = ev->last;
      for (const std::string& mu : ev->acquired)
        if (cur.insert(mu).second) held.push_back({mu, depth, ev->scoped});
      if (!ev->released.empty())
        release([&](const HeldLock& h) { return h.mutex == ev->released; });
      continue;
    }
    if (is_punct(t[i], "{")) {
      ++depth;
    } else if (is_punct(t[i], "}")) {
      --depth;
      release([&](const HeldLock& h) { return h.scoped && h.depth > depth; });
    }
    visit(i, cur);
  }
}

LockContracts collect_lock_contracts(const Project& project) {
  LockContracts out;
  for (const auto& af : project.files) {
    const std::string& root = af.lex.root;
    for (const auto& def : af.model.defs) {
      for (const std::string& mu : def.requires_locks)
        out.requires_by_root[root][def.name].insert(
            canonical_annotation(project, af, def.class_name, mu));
      for (const std::string& mu : def.excludes_locks)
        out.excludes_by_root[root][def.name].insert(
            canonical_annotation(project, af, def.class_name, mu));
    }
    for (const auto& ci : af.model.classes) {
      for (const auto& d : ci.lock_contract_decls) {
        for (const std::string& mu : d.requires_locks)
          out.requires_by_root[root][d.name].insert(
              canonical_annotation(project, af, ci.name, mu));
        for (const std::string& mu : d.excludes_locks)
          out.excludes_by_root[root][d.name].insert(
              canonical_annotation(project, af, ci.name, mu));
      }
    }
  }
  return out;
}

std::set<std::string> entry_locks(const Project& project,
                                  const AnalyzedFile& af,
                                  const FunctionDef& def) {
  std::set<std::string> out;
  for (const std::string& mu : def.requires_locks)
    out.insert(canonical_annotation(project, af, def.class_name, mu));
  if (!def.class_name.empty()) {
    if (const ClassInfo* ci = project.find_class(af, def.class_name)) {
      for (const auto& d : ci->lock_contract_decls) {
        if (d.name != def.name) continue;
        for (const std::string& mu : d.requires_locks)
          out.insert(canonical_annotation(project, af, ci->name, mu));
      }
    }
  }
  return out;
}

bool plain_member_access(const LexedFile& f, std::size_t i) {
  const auto& t = f.tokens;
  if (i > 0 && t[i - 1].kind == TokKind::kPunct) {
    const std::string& p = t[i - 1].text;
    if (p == "." || p == "::") return false;
    if (p == "->" && !(i > 1 && t[i - 2].text == "this")) return false;
  }
  return true;
}

bool member_write_at(const LexedFile& f, std::size_t i) {
  const auto& t = f.tokens;
  if (i > 0 && t[i - 1].kind == TokKind::kPunct &&
      (t[i - 1].text == "++" || t[i - 1].text == "--"))
    return true;  // pre-increment
  std::size_t j = i + 1;
  if (j < t.size() && is_punct(t[j], "["))
    j = match_bracket(t, j, t.size(), "[", "]");
  if (j >= t.size()) return false;
  if (is_assign_op(t[j])) return true;
  if ((is_punct(t[j], ".") || is_punct(t[j], "->")) && j + 1 < t.size() &&
      t[j + 1].kind == TokKind::kIdent && is_mutating_call(t[j + 1].text) &&
      j + 2 < t.size() && is_punct(t[j + 2], "(")) {
    return true;
  }
  return false;
}

}  // namespace sysuq_analyze
