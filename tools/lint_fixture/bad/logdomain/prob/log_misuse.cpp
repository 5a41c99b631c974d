// log-domain fixture, bad twin. Never compiled.
#include "prob/log_misuse.hpp"

#include <cmath>

#include "core/contracts.hpp"

namespace sysuq::prob {

// `log_joint` is a log-domain value: scaling it with `*` and asserting
// it as a probability are both category errors.
double LogModel::posterior(const std::vector<double>& p) {
  double log_joint = std::log(p[0]) + std::log(p[1]);
  double scaled = log_joint * static_cast<double>(p.size());
  SYSUQ_ASSERT_PROB(log_joint, "posterior mass");
  log_evidence_ = log_joint;
  return scaled;
}

// Naive accumulation over a probability array: mass drifts on long
// sums (the PR-3 bug class).
double LogModel::total_mass(const std::vector<double>& p) {
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += p[i];
  }
  return acc;
}

// joint() provably returns a log-domain value ...
double joint(const std::vector<double>& p) {
  double s = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    s += std::log(p[i]);
  }
  return s;
}

// ... so dividing its result linearly is flagged interprocedurally.
double lin(const std::vector<double>& p) {
  double j = joint(p);
  return j / static_cast<double>(p.size());
}

// The early return reaches the rest of the body with no facts yet: the
// solver must still visit it, or the accumulator it declares is never
// seen and the naive loop goes unflagged.
double early_mass(const std::vector<double>& p, bool skip) {
  if (skip) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += p[i];
  }
  return acc;
}

}  // namespace sysuq::prob
