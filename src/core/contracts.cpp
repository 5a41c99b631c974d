#include "core/contracts.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace sysuq::contracts {

void fail(const char* kind, const char* expr, const char* what) {
  switch (mode()) {
    case Mode::kOff:
      return;
    case Mode::kAbort:
      std::fprintf(stderr, "sysuq contract violation: %s [%s: %s]\n", what,
                   kind, expr);
      std::abort();
    case Mode::kThrow:
      break;
  }
  std::string message(what);
  message += " [";
  message += kind;
  message += " violated: ";
  message += expr;
  message += "]";
  throw ContractViolation(message);
}

void fail(const char* kind, const char* expr, const std::string& what) {
  fail(kind, expr, what.c_str());
}

bool is_probability(double p) noexcept {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

bool is_finite_nonneg(std::span<const double> v) noexcept {
  for (double x : v) {
    if (!std::isfinite(x) || x < 0.0) return false;
  }
  return true;
}

bool is_normalized(std::span<const double> v, double tol) noexcept {
  if (v.empty() || !is_finite_nonneg(v)) return false;
  double sum = 0.0;
  for (double x : v) sum += x;
  return std::fabs(sum - 1.0) <= tol;
}

void check_probability(double p, const char* what) {
  if (!is_probability(p))
    fail("precondition", "is_probability(p)",
         (std::string(what) + ": probability must be finite and in [0, 1]")
             .c_str());
}

void check_prob_vec(std::span<const double> v, const char* what) {
  if (v.empty()) {
    fail("precondition", "!v.empty()", (std::string(what) + ": empty").c_str());
    return;
  }
  // One pass: each entry is checked as it joins the sum, which adds left
  // to right from 0.0 as is_normalized does.
  double sum = 0.0;
  for (const double x : v) {
    if (!std::isfinite(x) || x < 0.0) {
      fail("precondition", "is_finite_nonneg(v)",
           (std::string(what) +
            ": probabilities must be finite and non-negative")
               .c_str());
      return;
    }
    sum += x;
  }
  if (!(std::fabs(sum - 1.0) <= tolerance::kProbSum)) {
    fail("precondition", "is_normalized(v)",
         (std::string(what) + ": probabilities must sum to 1").c_str());
  }
}

}  // namespace sysuq::contracts
