#include "bayesnet/inference.hpp"

#include "core/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "bayesnet/ordering.hpp"
#include "core/tolerance.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

// Instruments resolved once; hot paths touch only the atomics.
struct VeMetrics {
  obs::Counter& queries;
  obs::Histogram& query_seconds;

  static VeMetrics& instance() {
    static VeMetrics m{
        obs::Registry::global().counter("bayesnet.ve.queries"),
        obs::Registry::global().histogram("bayesnet.ve.query_seconds",
                                          obs::seconds_buckets())};
    return m;
  }
};

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

VariableElimination::VariableElimination(const BayesianNetwork& net) : net_(net) {
  net_.validate();
}

kernels::ScaledFactor VariableElimination::eliminate_all_but(
    const std::vector<VariableId>& keep, const Evidence& evidence) const {
  // Collect the evidence-reduced CPT factors. Intermediates live in the
  // per-thread arena and only the final result is materialized (by
  // eliminate_scaled), so the arena can be reset before returning.
  Arena& arena = kernels::thread_scratch();
  arena.reset();
  std::vector<Factor> owned;
  owned.reserve(net_.size());
  std::vector<kernels::View> views;
  views.reserve(net_.size());
  for (VariableId v = 0; v < net_.size(); ++v) {
    owned.push_back(net_.cpt_factor(v, evidence));
    views.push_back(kernels::view_of(owned.back()));
  }

  const EliminationOrdering ordering =
      compute_elimination_order(net_, keep, evidence_keys(evidence));
  kernels::ScaledFactor out =
      kernels::eliminate_scaled(std::move(views), ordering.order, arena);
  arena.reset();
  return out;
}

prob::Categorical VariableElimination::query(VariableId query,
                                             const Evidence& evidence) const {
  auto& metrics = VeMetrics::instance();
  const obs::Span span("bayesnet.ve.query");
  const obs::HistogramTimer timer(metrics.query_seconds);
  metrics.queries.inc();
  if (evidence.contains(query)) {
    // Querying an observed variable returns its point mass.
    return prob::Categorical::delta(evidence.at(query),
                                    net_.variable(query).cardinality());
  }
  const kernels::ScaledFactor sf = eliminate_all_but({query}, evidence);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor& f = sf.factor;
  if (f.scope().size() != 1 || f.scope()[0] != query)
    throw std::logic_error("VariableElimination: unexpected result scope");
  return prob::Categorical(f.normalized().values());
}

double VariableElimination::evidence_probability(const Evidence& evidence) const {
  const kernels::ScaledFactor sf = eliminate_all_but({}, evidence);
  // exp(log_scale) is exactly 1 unless a rescale fired, so ordinary
  // queries return the unscaled total bit for bit; rescaled runs may
  // still underflow the linear return value (a double cannot represent
  // P(e) ~ 1e-800), but no longer report a hard zero as impossible.
  return sf.factor.total() * std::exp(sf.log_scale);
}

prob::JointTable VariableElimination::joint(VariableId a, VariableId b,
                                            const Evidence& evidence) const {
  if (a == b) throw std::invalid_argument("VariableElimination::joint: a == b");
  if (evidence.contains(a) || evidence.contains(b))
    throw std::invalid_argument(
        "VariableElimination::joint: query variable in evidence");
  const kernels::ScaledFactor sf = eliminate_all_but({a, b}, evidence);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor f = sf.factor.normalized();
  const std::size_t ca = net_.variable(a).cardinality();
  const std::size_t cb = net_.variable(b).cardinality();
  // Factor scope is sorted; map into (a-rows, b-cols).
  const bool a_first = a < b;
  std::vector<std::vector<double>> table(ca, std::vector<double>(cb, 0.0));
  for (std::size_t i = 0; i < ca; ++i) {
    for (std::size_t j = 0; j < cb; ++j) {
      table[i][j] = a_first ? f.at({i, j}) : f.at({j, i});
    }
  }
  return prob::JointTable(std::move(table));
}

namespace {

// Iterates all full joint assignments, invoking fn(state, probability).
template <typename Fn>
void for_each_joint(const BayesianNetwork& net, Fn&& fn) {
  net.validate();
  const auto order = net.topological_order();
  std::vector<std::size_t> state(net.size(), 0);
  std::vector<std::size_t> cards(net.size());
  for (VariableId v = 0; v < net.size(); ++v)
    cards[v] = net.variable(v).cardinality();

  std::size_t total = 1;
  for (std::size_t c : cards) total *= c;

  for (std::size_t flat = 0; flat < total; ++flat) {
    double p = 1.0;
    for (VariableId v : order) {
      const auto& ps = net.parents(v);
      std::vector<std::size_t> pstates(ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) pstates[i] = state[ps[i]];
      p *= net.cpt_row(v, pstates).p(state[v]);
      if (p == 0.0) break;  // sysuq-lint-allow(float-eq): zero mass short-circuit
    }
    fn(state, p);
    for (std::size_t k = net.size(); k-- > 0;) {
      if (++state[k] < cards[k]) break;
      state[k] = 0;
    }
  }
}

bool consistent(const std::vector<std::size_t>& state, const Evidence& evidence) {
  for (const auto& [v, s] : evidence) {
    if (state[v] != s) return false;
  }
  return true;
}

}  // namespace

prob::Categorical enumerate_posterior(const BayesianNetwork& net,
                                      VariableId query, const Evidence& evidence) {
  std::vector<double> weights(net.variable(query).cardinality(), 0.0);
  for_each_joint(net, [&](const std::vector<std::size_t>& state, double p) {
    if (consistent(state, evidence)) weights[state[query]] += p;
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
  for_each_joint(net, [&](const std::vector<std::size_t>& state, double p) {
    if (!consistent(state, evidence)) return;
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
  for_each_joint(net, [&](const std::vector<std::size_t>& state, double p) {
    if (!consistent(state, evidence)) return;
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
  auto& metrics = SamplingMetrics::instance();
  const obs::Span span("bayesnet.sampling.likelihood_weighting");
  const auto order = net.topological_order();
  std::vector<double> weights(net.variable(query).cardinality(), 0.0);
  std::vector<std::size_t> state(net.size(), 0);
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::uint64_t zero_weight = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    double w = 1.0;
    for (VariableId v : order) {
      const auto& ps = net.parents(v);
      std::vector<std::size_t> pstates(ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) pstates[i] = state[ps[i]];
      const auto& row = net.cpt_row(v, pstates);
      const auto it = evidence.find(v);
      if (it != evidence.end()) {
        state[v] = it->second;
        w *= row.p(it->second);
      } else {
        state[v] = row.sample(rng);
      }
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

prob::Categorical rejection_sampling(const BayesianNetwork& net, VariableId query,
                                     const Evidence& evidence, std::size_t samples,
                                     prob::Rng& rng, std::size_t* accepted) {
  SYSUQ_EXPECT(samples != 0, "rejection_sampling: zero samples");
  net.validate();
  auto& metrics = SamplingMetrics::instance();
  const obs::Span span("bayesnet.sampling.rejection_sampling");
  std::vector<double> counts(net.variable(query).cardinality(), 0.0);
  std::size_t acc = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto state = net.sample(rng);
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
