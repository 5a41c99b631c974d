#include "bayesnet/inference.hpp"

#include "core/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/tolerance.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

struct SamplingMetrics {
  obs::Gauge& effective_sample_size;
  obs::Counter& zero_weight_samples;
  obs::Counter& degenerate_failures;
  obs::Counter& rejected_samples;

  static SamplingMetrics& instance() {
    auto& registry = obs::Registry::global();
    static SamplingMetrics m{
        registry.gauge("bayesnet.sampling.effective_sample_size"),
        registry.counter("bayesnet.sampling.zero_weight_samples"),
        registry.counter("bayesnet.sampling.degenerate_failures"),
        registry.counter("bayesnet.sampling.rejected_samples")};
    return m;
  }
};

}  // namespace

std::string impossible_evidence_message(const BayesianNetwork& net,
                                        const Evidence& evidence) {
  std::string msg = "bayesnet: impossible evidence (P(e) = 0): ";
  if (evidence.empty()) {
    msg += "(none)";
    return msg;
  }
  bool first = true;
  for (const auto& [v, state] : evidence) {  // map: VariableId order
    if (!first) msg += ", ";
    first = false;
    const Variable& var = net.variable(v);
    msg += var.name();
    msg += '=';
    msg += var.state_name(state);
  }
  return msg;
}

namespace {

// Where v's CPT table holds the row P(v | parents) that a joint `state`
// selects: v's state s sits at cell first + s * stride.
std::pair<std::size_t, std::size_t> row_cells(const Factor& cpt, VariableId v,
                                              const std::vector<std::size_t>& state) {
  std::size_t first = 0, stride = 1, v_stride = 0;
  for (std::size_t i = cpt.scope().size(); i-- > 0; stride *= cpt.cardinalities()[i]) {
    if (cpt.scope()[i] == v) {
      v_stride = stride;
    } else {
      first += state[cpt.scope()[i]] * stride;
    }
  }
  return {first, v_stride};
}

// Draws v's state from the CPT row that `state` selects, as
// Categorical::sample would; `row` is reused scratch.
std::size_t draw(const BayesianNetwork& net, VariableId v,
                 const std::vector<std::size_t>& state, prob::Rng& rng,
                 std::vector<double>& row) {
  const Factor& cpt = net.cpt_factor(v);
  const auto [first, stride] = row_cells(cpt, v, state);
  row.resize(net.variable(v).cardinality());
  for (std::size_t s = 0; s < row.size(); ++s) row[s] = cpt.values()[first + s * stride];
  return rng.categorical(row);
}

// Fills `state` with one ancestral draw along `order`, a topological
// order of `net`.
void draw_joint(const BayesianNetwork& net, const std::vector<VariableId>& order,
                std::vector<std::size_t>& state, prob::Rng& rng,
                std::vector<double>& row) {
  for (VariableId v : order) state[v] = draw(net, v, state, rng, row);
}

bool consistent(const std::vector<std::size_t>& state, const Evidence& evidence) {
  for (const auto& [v, s] : evidence) {
    if (state[v] != s) return false;
  }
  return true;
}

// Iterates the full joint assignments consistent with `evidence`, in
// odometer order (last variable fastest), invoking fn(state, probability).
template <typename Fn>
void for_each_consistent(const BayesianNetwork& net, const Evidence& evidence,
                         Fn&& fn) {
  net.validate();
  net.check_evidence(evidence);
  const auto order = net.topological_order();
  std::vector<std::size_t> state(net.size(), 0);
  std::vector<std::size_t> cards(net.size());
  for (VariableId v = 0; v < net.size(); ++v)
    cards[v] = net.variable(v).cardinality();

  std::size_t total = 1;
  for (std::size_t c : cards) total *= c;

  for (std::size_t flat = 0; flat < total; ++flat) {
    if (consistent(state, evidence)) {
      double p = 1.0;
      for (VariableId v : order) {
        const Factor& cpt = net.cpt_factor(v);
        const auto [first, stride] = row_cells(cpt, v, state);
        p *= cpt.values()[first + state[v] * stride];
        if (p == 0.0) break;  // sysuq-lint-allow(float-eq): zero mass short-circuit
      }
      fn(state, p);
    }
    for (std::size_t k = net.size(); k-- > 0;) {
      if (++state[k] < cards[k]) break;
      state[k] = 0;
    }
  }
}

}  // namespace

prob::Categorical enumerate_posterior(const BayesianNetwork& net,
                                      VariableId query, const Evidence& evidence) {
  std::vector<double> weights(net.variable(query).cardinality(), 0.0);
  for_each_consistent(net, evidence, [&](const auto& state, double p) {
    weights[state[query]] += p;
  });
  if (std::all_of(weights.begin(), weights.end(),
                  [](double w) { return w == 0.0; }))  // sysuq-lint-allow(float-eq): detect exactly-zero weights
    throw std::domain_error(impossible_evidence_message(net, evidence));
  return prob::Categorical::normalized(std::move(weights));
}

double enumerate_evidence_probability(const BayesianNetwork& net,
                                      const Evidence& evidence) {
  // Neumaier compensated summation: the correction term recovers the
  // low-order bits a naive left fold sheds over prod(cardinalities)
  // terms, so the postcondition can use the degeneracy guard kTiny
  // instead of the kProbSum slack PR 5 had to grant the naive sum.
  double total = 0.0;
  double comp = 0.0;
  for_each_consistent(net, evidence, [&](const auto&, double p) {
    const double t = total + p;
    if (std::abs(total) >= std::abs(p)) {
      comp += (total - t) + p;
    } else {
      comp += (p - t) + total;
    }
    total = t;
  });
  total += comp;
  SYSUQ_ENSURE(std::isfinite(total) &&
                   total >= -tolerance::kTiny &&
                   total <= 1.0 + tolerance::kTiny,
               "enumerate_evidence_probability: result outside [0, 1]");
  return total;
}

MpeResult enumerate_mpe(const BayesianNetwork& net, const Evidence& evidence) {
  MpeResult best{{}, -1.0};
  double evidence_mass = 0.0;
  for_each_consistent(net, evidence, [&](const auto& state, double p) {
    evidence_mass += p;
    if (p > best.probability) {
      best.probability = p;
      best.assignment = state;
    }
  });
  if (!(evidence_mass > 0.0))
    throw std::domain_error(impossible_evidence_message(net, evidence));
  best.probability /= evidence_mass;
  return best;
}

prob::Categorical likelihood_weighting(const BayesianNetwork& net,
                                       VariableId query, const Evidence& evidence,
                                       std::size_t samples, prob::Rng& rng) {
  SYSUQ_EXPECT(samples != 0, "likelihood_weighting: zero samples");
  net.validate();
  net.check_evidence(evidence);
  auto& metrics = SamplingMetrics::instance();
  const obs::Span span("bayesnet.sampling.likelihood_weighting");
  const auto order = net.topological_order();
  std::vector<double> weights(net.variable(query).cardinality(), 0.0);
  std::vector<std::size_t> state(net.size(), 0);
  std::vector<double> row;
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::uint64_t zero_weight = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    double w = 1.0;
    for (VariableId v : order) {
      const auto it = evidence.find(v);
      if (it == evidence.end()) {
        state[v] = draw(net, v, state, rng, row);
        continue;
      }
      state[v] = it->second;
      const Factor& cpt = net.cpt_factor(v);
      const auto [first, stride] = row_cells(cpt, v, state);
      w *= cpt.values()[first + it->second * stride];
    }
    weights[state[query]] += w;
    sum_w += w;
    sum_w2 += w * w;
    if (w == 0.0) ++zero_weight;  // sysuq-lint-allow(float-eq): exact zero-mass draw
  }
  metrics.zero_weight_samples.inc(zero_weight);
  // Every sample weighted zero: the evidence hit zero CPT rows along all
  // sampled parent configurations. Normalizing would divide by zero — fail
  // loudly, naming the evidence and how many draws were attempted (mirrors
  // rejection sampling's zero-accept behaviour).
  if (zero_weight == samples) {
    metrics.degenerate_failures.inc();
    throw std::domain_error(impossible_evidence_message(net, evidence) +
                            " (likelihood weighting: all " +
                            std::to_string(samples) +
                            " samples had weight zero)");
  }
  // Kish effective sample size (sum w)^2 / sum w^2 — how many unweighted
  // draws this weighted run is worth.
  metrics.effective_sample_size.set(sum_w * sum_w / sum_w2);
  return prob::Categorical::normalized(std::move(weights));
}

std::vector<std::size_t> BayesianNetwork::sample(prob::Rng& rng) const {
  std::vector<std::size_t> state(nodes_.size(), 0);
  std::vector<double> row;
  draw_joint(*this, topological_order(), state, rng, row);
  return state;
}

prob::Categorical rejection_sampling(const BayesianNetwork& net, VariableId query,
                                     const Evidence& evidence, std::size_t samples,
                                     prob::Rng& rng, std::size_t* accepted) {
  SYSUQ_EXPECT(samples != 0, "rejection_sampling: zero samples");
  net.validate();
  net.check_evidence(evidence);
  auto& metrics = SamplingMetrics::instance();
  const obs::Span span("bayesnet.sampling.rejection_sampling");
  // The draws of `net.sample`, with one topological order and one state
  // for the whole run.
  const auto order = net.topological_order();
  std::vector<std::size_t> state(net.size(), 0);
  std::vector<double> row;
  std::vector<double> counts(net.variable(query).cardinality(), 0.0);
  std::size_t acc = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    draw_joint(net, order, state, rng, row);
    if (!consistent(state, evidence)) continue;
    counts[state[query]] += 1.0;
    ++acc;
  }
  metrics.rejected_samples.inc(samples - acc);
  if (accepted != nullptr) *accepted = acc;
  if (acc == 0) {
    metrics.degenerate_failures.inc();
    throw std::domain_error(impossible_evidence_message(net, evidence));
  }
  return prob::Categorical::normalized(std::move(counts));
}

}  // namespace sysuq::bayesnet
