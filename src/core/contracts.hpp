// Contract macros for the sysuq library.
//
// The paper's epistemic/ontological split (Sec. III) is about knowing
// what a model silently assumes; these macros make the *code's*
// assumptions explicit and machine-checked. Every public entry point
// states its preconditions with SYSUQ_EXPECT / SYSUQ_ASSERT_PROB*, and
// its postconditions with SYSUQ_ENSURE, instead of scattering ad-hoc
// `if (...) throw` validation.
//
// Enforcement is build- and runtime-configurable:
//  * CMake `-DSYSUQ_CONTRACTS=off|throw|abort` (default `throw`) selects
//    the startup mode; `off` at configure time compiles the checks out
//    entirely (macros expand to `((void)0)`).
//  * `sysuq::contracts::set_mode()` switches between kOff / kThrow /
//    kAbort at runtime (unless compiled out) — used by tests and by
//    hosts that want abort-on-violation in production canaries.
//
// In kThrow mode a violation raises ContractViolation, which derives
// from std::invalid_argument so existing exception contracts
// (invalid_argument, logic_error) continue to hold for callers.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

#include "core/tolerance.hpp"

namespace sysuq::contracts {

/// Enforcement mode for contract checks.
enum class Mode {
  kOff = 0,    ///< conditions are not evaluated
  kThrow = 1,  ///< violations raise ContractViolation (default)
  kAbort = 2,  ///< violations print to stderr and std::abort()
};

/// Raised on contract violation in Mode::kThrow. Derives from
/// std::invalid_argument (itself a std::logic_error) so call sites keep
/// their documented exception types.
class ContractViolation : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {

/// The process-wide mode flag, constant-initialized to the build's
/// startup mode (see SYSUQ_CONTRACTS in CMake). Inline, so every check
/// reads it without a call.
inline std::atomic<Mode> mode_flag{
#if defined(SYSUQ_CONTRACTS_ABORT)
    Mode::kAbort
#else
    Mode::kThrow
#endif
};

}  // namespace detail

/// Current enforcement mode (startup value set by the build
/// configuration; see SYSUQ_CONTRACTS in CMake).
[[nodiscard]] inline Mode mode() noexcept {
  return detail::mode_flag.load(std::memory_order_relaxed);
}

/// Overrides the enforcement mode process-wide. Thread-safe; intended
/// for tests and embedding hosts, not for per-call toggling.
inline void set_mode(Mode m) noexcept {
  detail::mode_flag.store(m, std::memory_order_relaxed);
}

/// True when contract conditions are evaluated (mode() != kOff). Inline
/// over one relaxed load, since the hot kernels evaluate checks on every
/// call.
[[nodiscard]] inline bool enforced() noexcept { return mode() != Mode::kOff; }

/// Reports a violation according to mode(): throws ContractViolation in
/// kThrow, writes a diagnostic to stderr and aborts in kAbort, returns
/// silently in kOff. `kind` is "precondition"/"postcondition"/..,
/// `expr` the stringized condition, `what` the call-site message.
void fail(const char* kind, const char* expr, const char* what);

/// Overload for call sites that build their message dynamically.
void fail(const char* kind, const char* expr, const std::string& what);

// ----------------------------------------------------------------------
// Probability-domain predicates. All share the single normalization
// epsilon tolerance::kProbSum.

/// Finite and within [0, 1].
[[nodiscard]] bool is_probability(double p) noexcept;

/// Every element finite and non-negative.
[[nodiscard]] bool is_finite_nonneg(std::span<const double> v) noexcept;

/// Non-empty, every element finite and non-negative, and the sum within
/// `tol` of 1.
[[nodiscard]] bool is_normalized(std::span<const double> v,
                                 double tol = tolerance::kProbSum) noexcept;

/// Checks `p` with is_probability and reports "<what>: probability must
/// be finite and in [0, 1]" on violation.
void check_probability(double p, const char* what);

/// Checks that `v` is a probability vector (non-empty; finite,
/// non-negative entries; sum within tolerance::kProbSum of 1) and
/// reports a violation naming the failed clause.
void check_prob_vec(std::span<const double> v, const char* what);

}  // namespace sysuq::contracts

#if defined(SYSUQ_CONTRACTS_OFF)

// Compiled-out form: the arguments stay inside an unevaluated sizeof so
// they are never executed but still count as used (no -Wunused-variable
// churn between the two configurations).
#define SYSUQ_CONTRACTS_UNUSED_(expr) ((void)sizeof((expr), 0))
#define SYSUQ_EXPECT(cond, what) \
  (SYSUQ_CONTRACTS_UNUSED_(cond), SYSUQ_CONTRACTS_UNUSED_(what))
#define SYSUQ_ENSURE(cond, what) \
  (SYSUQ_CONTRACTS_UNUSED_(cond), SYSUQ_CONTRACTS_UNUSED_(what))
#define SYSUQ_ASSERT_PROB(p, what) \
  (SYSUQ_CONTRACTS_UNUSED_(p), SYSUQ_CONTRACTS_UNUSED_(what))
#define SYSUQ_ASSERT_PROB_VEC(vec, what) \
  (SYSUQ_CONTRACTS_UNUSED_(vec), SYSUQ_CONTRACTS_UNUSED_(what))

#else

/// Precondition: argument/state validation at a public entry point.
#define SYSUQ_EXPECT(cond, what)                                      \
  do {                                                                \
    if (::sysuq::contracts::enforced() && !(cond))                    \
      ::sysuq::contracts::fail("precondition", #cond, what);          \
  } while (false)

/// Postcondition: result validation before returning.
#define SYSUQ_ENSURE(cond, what)                                      \
  do {                                                                \
    if (::sysuq::contracts::enforced() && !(cond))                    \
      ::sysuq::contracts::fail("postcondition", #cond, what);         \
  } while (false)

/// Scalar probability: finite and in [0, 1].
#define SYSUQ_ASSERT_PROB(p, what)                                    \
  do {                                                                \
    if (::sysuq::contracts::enforced())                               \
      ::sysuq::contracts::check_probability((p), what);               \
  } while (false)

/// Probability vector: non-empty, finite, non-negative, normalized
/// within tolerance::kProbSum.
#define SYSUQ_ASSERT_PROB_VEC(vec, what)                              \
  do {                                                                \
    if (::sysuq::contracts::enforced())                               \
      ::sysuq::contracts::check_prob_vec((vec), what);                \
  } while (false)

#endif  // SYSUQ_CONTRACTS_OFF
