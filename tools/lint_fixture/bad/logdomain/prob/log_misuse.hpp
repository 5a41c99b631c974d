// log-domain fixture: log_misuse.cpp multiplies log-domain values with
// linear `*`, feeds a log value to SYSUQ_ASSERT_PROB, accumulates a
// probability array with a naive `+=` loop (twice: once behind an early
// return), and leaks log-ness through a helper's return value into a
// `/`. Never compiled.
#pragma once

#include <cstddef>
#include <vector>

namespace sysuq::prob {

class LogModel {
 public:
  double posterior(const std::vector<double>& p);
  double total_mass(const std::vector<double>& p);

 private:
  double log_evidence_ = 0.0;
};

double joint(const std::vector<double>& p);
double lin(const std::vector<double>& p);
double early_mass(const std::vector<double>& p, bool skip);

}  // namespace sysuq::prob
