// Lock acquisition for the thread-safety passes: the one place the
// analyzer reads which mutex a token takes or drops.
//
// `LockReader` parses guard declarations and `.lock()` / `.unlock()`
// calls and names each mutex with `canonical_mutex_at`, so annotations,
// guard declarations and requires-contracts all spell the same lock
// `Class::member_`. Two walkers keep the held set on top of it:
// `walk_lock_scopes` walks tokens, with RAII guard lifetimes following
// brace depth, and serves guard-consistency (whose walk also checks
// lock-discipline's atomic-order ceiling) and thread-escape, which need
// the held set at every token of a body (or of a worker lambda walked
// in isolation); lock-order walks cfg.hpp's statements instead.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/model.hpp"
#include "sysuq_analyze/passes.hpp"

namespace sysuq_analyze {

/// True for std::lock_guard / unique_lock / scoped_lock / shared_lock.
[[nodiscard]] bool guard_type_name(const std::string& n);

/// True for the pool-dispatch method names (run/submit/enqueue/post/
/// dispatch) the role inference seeds at.
[[nodiscard]] bool dispatch_method_name(const std::string& n);

/// Canonical name of the mutex spelled by the identifier chain ending
/// at token index `last` (inclusive): walks back through `a.b` /
/// `a->b` / `A::b` links. Members of `class_name` (or trailing-`_`
/// names) resolve to `Class::name`; other chains keep their joined
/// spelling.
[[nodiscard]] std::string canonical_mutex_at(const Project& project,
                                             const AnalyzedFile& af,
                                             const std::string& class_name,
                                             std::size_t last);

/// Canonicalizes a lock name as spelled inside a sysuq-guarded-by /
/// sysuq-requires / sysuq-excludes marker, against the class the
/// annotated entity belongs to.
[[nodiscard]] std::string canonical_annotation(const Project& project,
                                               const AnalyzedFile& af,
                                               const std::string& class_name,
                                               const std::string& spelled);

/// One lock acquisition or release, read at its keyword: the guard type
/// of a declaration, or the `lock` / `unlock` of a call.
struct LockEvent {
  std::size_t last = 0;  ///< index of the event's last token
  /// Canonical mutexes taken, in argument order.
  std::vector<std::string> acquired;
  /// Canonical mutex dropped; empty when none.
  std::string released;
  /// True for a guard's lock, which its brace scope releases; false for
  /// `.lock()` on a raw mutex chain, which only `.unlock()` releases.
  bool scoped = true;
};

/// Reads lock events off the tokens of one walk:
///   - a guard declaration `Type[<...>] name(args)`, Type one of
///     `guard_type_name`: each argument's trailing identifier chain
///     names a mutex, except the `adopt_lock` / `defer_lock` /
///     `try_to_lock` tags. A guard constructed with `defer_lock` holds
///     nothing; it only records its mutex for a later `name.lock()`.
///   - `X.lock()` / `X.unlock()`, where X is a guard variable declared
///     earlier in the walk or a mutex chain.
class LockReader {
 public:
  LockReader(const Project& project, const AnalyzedFile& af,
             const std::string& class_name);

  /// The event whose keyword is token `i` and whose tokens end before
  /// `end`; nullopt when there is none.
  [[nodiscard]] std::optional<LockEvent> read(std::size_t i, std::size_t end);

  /// The mutex named by the identifier (chain) ending at token `i`: a
  /// guard variable's mutex, else `canonical_mutex_at`.
  [[nodiscard]] std::string mutex_named_at(std::size_t i) const;

 private:
  const Project& project_;
  const AnalyzedFile& af_;
  std::string class_name_;
  std::map<std::string, std::string> guards_;  ///< guard variable -> mutex
};

/// Walks tokens [begin, end) maintaining the set of held canonical
/// mutex names, calling `visit(i, held)` for every token index in
/// order; a lock event's own tokens see the set before it. `entry_held`
/// seeds the set (a function's sysuq-requires contract) and is never
/// popped by scope exits. Lambda bodies are walked inline: a lambda
/// executing on this thread sees the enclosing locks, and a guard it
/// declares scopes to its own braces — callers that dispatch a lambda
/// to another thread must walk that range separately with an empty
/// entry set.
void walk_lock_scopes(
    const Project& project, const AnalyzedFile& af,
    const std::string& class_name, std::size_t begin, std::size_t end,
    const std::set<std::string>& entry_held,
    const std::function<void(std::size_t, const std::set<std::string>&)>&
        visit);

/// Lock contracts collected from every sysuq-requires / sysuq-excludes
/// marker in the project, name-granular per scan root (matching the
/// call-graph granularity): function name -> canonical mutex names.
struct LockContracts {
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      requires_by_root;
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      excludes_by_root;
};

[[nodiscard]] LockContracts collect_lock_contracts(const Project& project);

/// Entry-held set of a definition: its own sysuq-requires markers plus
/// any on a same-named declaration of its class, canonicalized.
[[nodiscard]] std::set<std::string> entry_locks(const Project& project,
                                                const AnalyzedFile& af,
                                                const FunctionDef& def);

/// True when the identifier at token `i` is a plain access to a member
/// of the enclosing object — not `other.name` / `ns::name` (a `this->`
/// prefix still counts).
[[nodiscard]] bool plain_member_access(const LexedFile& f, std::size_t i);

/// True when the identifier at token `i` is written to: assignment or
/// compound assignment (through an optional [index] subscript),
/// pre/post increment/decrement, or a mutating container call. With
/// `plain_member_access` this is the member-write test of
/// validate-before-mutate and the thread-safety passes.
[[nodiscard]] bool member_write_at(const LexedFile& f, std::size_t i);

}  // namespace sysuq_analyze
