#include "bayesnet/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bayesnet/engine.hpp"
#include "core/contracts.hpp"
#include "core/tolerance.hpp"

namespace sysuq::bayesnet {

namespace {

// Returns a copy of `rows` with entry (row, state) moved to `new_value`
// under proportional co-variation of the remaining states.
std::vector<prob::Categorical> covary(const std::vector<prob::Categorical>& rows,
                                      std::size_t row, std::size_t state,
                                      double new_value) {
  const auto& r = rows.at(row);
  const double old_value = r.p(state);
  const double rest_old = 1.0 - old_value;
  std::vector<double> probs(r.size());
  for (std::size_t s = 0; s < r.size(); ++s) {
    if (s == state) {
      probs[s] = new_value;
    } else if (rest_old > tolerance::kTiny) {
      probs[s] = r.p(s) * (1.0 - new_value) / rest_old;
    } else {
      // Degenerate row (entry was 1): spread uniformly.
      probs[s] = (1.0 - new_value) / static_cast<double>(r.size() - 1);
    }
  }
  auto out = rows;
  out[row] = prob::Categorical::normalized(std::move(probs));
  return out;
}

// Exact VE on one thread: kAuto could escalate a large network to BP,
// and an approximate posterior would spoil the finite difference.
double query_prob(const BayesianNetwork& net, VariableId query,
                  std::size_t qstate, const Evidence& evidence) {
  const InferenceEngine engine(
      net, {.threads = 1, .backend = Backend::kVariableElimination});
  return engine.query(query, evidence).p(qstate);
}

}  // namespace

double query_sensitivity(const BayesianNetwork& net, VariableId child,
                         std::size_t row, std::size_t state, VariableId query,
                         std::size_t qstate, const Evidence& evidence,
                         double delta) {
  SYSUQ_EXPECT(delta > 0.0, "query_sensitivity: delta");
  const auto rows = net.cpt_rows(child);
  if (row >= rows.size()) throw std::out_of_range("query_sensitivity: row");
  if (state >= rows[row].size())
    throw std::out_of_range("query_sensitivity: state");
  const double theta = rows[row].p(state);

  // Central difference where possible, one-sided at the boundary.
  const double lo = std::max(0.0, theta - delta);
  const double hi = std::min(1.0, theta + delta);
  if (!(hi > lo)) return 0.0;

  auto net_lo = net;
  net_lo.update_cpt_rows(child, covary(rows, row, state, lo));
  auto net_hi = net;
  net_hi.update_cpt_rows(child, covary(rows, row, state, hi));
  const double p_lo = query_prob(net_lo, query, qstate, evidence);
  const double p_hi = query_prob(net_hi, query, qstate, evidence);
  return (p_hi - p_lo) / (hi - lo);
}

std::vector<ParameterSensitivity> rank_parameters(const BayesianNetwork& net,
                                                  VariableId query,
                                                  std::size_t qstate,
                                                  const Evidence& evidence,
                                                  double delta) {
  net.validate();
  std::vector<ParameterSensitivity> out;
  for (VariableId child = 0; child < net.size(); ++child) {
    const auto rows = net.cpt_rows(child);
    for (std::size_t row = 0; row < rows.size(); ++row) {
      for (std::size_t state = 0; state < rows[row].size(); ++state) {
        ParameterSensitivity ps{};
        ps.child = child;
        ps.row = row;
        ps.state = state;
        ps.value = rows[row].p(state);
        ps.derivative = query_sensitivity(net, child, row, state, query, qstate,
                                          evidence, delta);
        out.push_back(ps);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ParameterSensitivity& a, const ParameterSensitivity& b) {
              return std::fabs(a.derivative) > std::fabs(b.derivative);
            });
  return out;
}

}  // namespace sysuq::bayesnet
