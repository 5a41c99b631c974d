#include "markov/hmm.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include "core/contracts.hpp"
#include "core/tolerance.hpp"
#include "obs/registry.hpp"

namespace sysuq::markov {

Hmm::Hmm(prob::Categorical initial, std::vector<prob::Categorical> transition,
         std::vector<prob::Categorical> emission)
    : init_(std::move(initial)),
      trans_(std::move(transition)),
      emit_(std::move(emission)) {
  const std::size_t n = init_.size();
  SYSUQ_EXPECT(trans_.size() == n && emit_.size() == n,
               "Hmm: row count != state count");
  for (const auto& row : trans_) {
    SYSUQ_EXPECT(row.size() == n, "Hmm: transition row size mismatch");
  }
  for (const auto& row : emit_) {
    SYSUQ_EXPECT(row.size() == emit_[0].size(),
                 "Hmm: emission row size mismatch");
  }
}

Hmm::FilterResult Hmm::filter(const std::vector<std::size_t>& obs) const {
  SYSUQ_EXPECT(!obs.empty(), "Hmm::filter: empty sequence");
  const std::size_t n = state_count();
  FilterResult out;
  out.filtered.reserve(obs.size());
  out.log_likelihood = 0.0;

  std::vector<double> alpha(n);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    if (obs[t] >= symbol_count())
      throw std::out_of_range("Hmm::filter: observation symbol");
    std::vector<double> next(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double pred = 0.0;
      if (t == 0) {
        pred = init_.p(j);
      } else {
        for (std::size_t i = 0; i < n; ++i) pred += alpha[i] * trans_[i].p(j);
      }
      next[j] = pred * emit_[j].p(obs[t]);
    }
    double norm = 0.0;
    for (double v : next) norm += v;
    if (!(norm > 0.0))
      throw std::domain_error("Hmm::filter: impossible observation sequence");
    for (double& v : next) v /= norm;
    out.log_likelihood += std::log(norm);
    alpha = next;
    out.filtered.emplace_back(alpha);
  }
  return out;
}

std::vector<prob::Categorical> Hmm::smooth(
    const std::vector<std::size_t>& obs) const {
  const auto fwd = filter(obs);
  const std::size_t n = state_count();
  const std::size_t len = obs.size();

  // Backward pass with per-step normalization.
  std::vector<std::vector<double>> beta(len, std::vector<double>(n, 1.0));
  for (std::size_t t = len - 1; t-- > 0;) {
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double v = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        v += trans_[i].p(j) * emit_[j].p(obs[t + 1]) * beta[t + 1][j];
      beta[t][i] = v;
      norm += v;
    }
    if (norm > 0.0) {
      for (double& v : beta[t]) v /= norm;
    }
  }

  std::vector<prob::Categorical> out;
  out.reserve(len);
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = fwd.filtered[t].p(i) * beta[t][i];
    out.push_back(prob::Categorical::normalized(std::move(w)));
  }
  return out;
}

std::vector<std::size_t> Hmm::viterbi(const std::vector<std::size_t>& obs) const {
  SYSUQ_EXPECT(!obs.empty(), "Hmm::viterbi: empty sequence");
  const std::size_t n = state_count();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const auto safe_log = [](double p) {
    return p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
  };

  std::vector<std::vector<double>> delta(obs.size(), std::vector<double>(n));
  std::vector<std::vector<std::size_t>> arg(obs.size(),
                                            std::vector<std::size_t>(n, 0));
  for (std::size_t j = 0; j < n; ++j) {
    delta[0][j] = safe_log(init_.p(j)) + safe_log(emit_[j].p(obs[0]));
  }
  for (std::size_t t = 1; t < obs.size(); ++t) {
    if (obs[t] >= symbol_count())
      throw std::out_of_range("Hmm::viterbi: observation symbol");
    for (std::size_t j = 0; j < n; ++j) {
      double best = kNegInf;
      std::size_t best_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = delta[t - 1][i] + safe_log(trans_[i].p(j));
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      delta[t][j] = best + safe_log(emit_[j].p(obs[t]));
      arg[t][j] = best_i;
    }
  }

  std::vector<std::size_t> path(obs.size());
  std::size_t best = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (delta.back()[j] > delta.back()[best]) best = j;
  }
  if (delta.back()[best] == kNegInf)
    throw std::domain_error("Hmm::viterbi: impossible observation sequence");
  path.back() = best;
  for (std::size_t t = obs.size(); t-- > 1;) path[t - 1] = arg[t][path[t]];
  return path;
}

HmmFit Hmm::baum_welch_step(const std::vector<std::size_t>& obs,
                                 double smoothing) const {
  SYSUQ_EXPECT(obs.size() >= 2, "Hmm::baum_welch_step: need >= 2 observations");
  if (!(smoothing >= 0.0))
    throw std::invalid_argument("Hmm::baum_welch_step: negative smoothing");
  const std::size_t n = state_count();
  const std::size_t m = symbol_count();
  const std::size_t len = obs.size();

  // Scaled forward pass (reuse filter) and backward pass (as in smooth).
  const auto fwd = filter(obs);
  std::vector<std::vector<double>> beta(len, std::vector<double>(n, 1.0));
  for (std::size_t t = len - 1; t-- > 0;) {
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double v = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        v += trans_[i].p(j) * emit_[j].p(obs[t + 1]) * beta[t + 1][j];
      beta[t][i] = v;
      norm += v;
    }
    if (norm > 0.0) {
      for (double& v : beta[t]) v /= norm;
    }
  }

  // State posteriors gamma_t(i) and transition posteriors xi_t(i, j).
  std::vector<std::vector<double>> gamma(len, std::vector<double>(n, 0.0));
  for (std::size_t t = 0; t < len; ++t) {
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      gamma[t][i] = fwd.filtered[t].p(i) * beta[t][i];
      // sysuq-lint-allow(log-domain): a per-step normalizer over the n states, divided straight back out below
      norm += gamma[t][i];
    }
    for (double& v : gamma[t]) v /= norm;
  }

  std::vector<std::vector<double>> trans_acc(n, std::vector<double>(n, smoothing));
  std::vector<std::vector<double>> emit_acc(n, std::vector<double>(m, smoothing));
  std::vector<double> init_acc(n, smoothing);
  for (std::size_t i = 0; i < n; ++i) init_acc[i] += gamma[0][i];
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t i = 0; i < n; ++i) emit_acc[i][obs[t]] += gamma[t][i];
  }
  // Hoisted out of the loop (also sidesteps a GCC 12 -O2 false-positive
  // -Wfree-nonheap-object on the per-iteration vector).
  std::vector<std::vector<double>> xi(n, std::vector<double>(n, 0.0));
  for (std::size_t t = 0; t + 1 < len; ++t) {
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        xi[i][j] = fwd.filtered[t].p(i) * trans_[i].p(j) *
                   emit_[j].p(obs[t + 1]) * beta[t + 1][j];
        // sysuq-lint-allow(log-domain): a per-step normalizer over the n x n transitions, divided straight back out below
        norm += xi[i][j];
      }
    }
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) trans_acc[i][j] += xi[i][j] / norm;
      }
    }
  }

  std::vector<prob::Categorical> new_trans, new_emit;
  for (std::size_t i = 0; i < n; ++i) {
    new_trans.push_back(prob::Categorical::normalized(trans_acc[i]));
    new_emit.push_back(prob::Categorical::normalized(emit_acc[i]));
  }
  return HmmFit{Hmm(prob::Categorical::normalized(init_acc),
                    std::move(new_trans), std::move(new_emit)),
                fwd.log_likelihood};
}

HmmFit Hmm::fit(const std::vector<std::size_t>& obs, std::size_t max_iters,
                     double tol, double smoothing) const {
  if (max_iters == 0) throw std::invalid_argument("Hmm::fit: zero iterations");
  Hmm current = *this;
  double prev_ll = -std::numeric_limits<double>::infinity();
  std::size_t iters = 0;
  for (std::size_t it = 0; it < max_iters; ++it) {
    ++iters;
    auto step = current.baum_welch_step(obs, smoothing);
    const double gain = step.log_likelihood - prev_ll;
    prev_ll = step.log_likelihood;
    current = std::move(step.model);
    if (it > 0 && gain < tol) break;
  }
  obs::Registry::global()
      .histogram("markov.hmm.fit_iterations", obs::count_buckets())
      .observe(static_cast<double>(iters));
  // Report the likelihood of the *final* model.
  const double final_ll = current.filter(obs).log_likelihood;
  return HmmFit{std::move(current), final_ll};
}

Hmm::Trajectory Hmm::sample(std::size_t length, prob::Rng& rng) const {
  if (length == 0) throw std::invalid_argument("Hmm::sample: zero length");
  Trajectory tr;
  tr.states.reserve(length);
  tr.observations.reserve(length);
  std::size_t state = init_.sample(rng);
  for (std::size_t t = 0; t < length; ++t) {
    if (t > 0) state = trans_[state].sample(rng);
    tr.states.push_back(state);
    tr.observations.push_back(emit_[state].sample(rng));
  }
  return tr;
}

}  // namespace sysuq::markov
