#include "prob/discrete.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "prob/special.hpp"

namespace sysuq::prob {

// ------------------------------------------------------------ Categorical

Categorical::Categorical(std::size_t k) : size_(k), store_{} {
  if (!is_inline()) store_.heap = new double[k]();
}

Categorical::Categorical(std::span<const double> probs) : Categorical(probs.size()) {
  SYSUQ_ASSERT_PROB_VEC(probs, "Categorical");
  std::copy(probs.begin(), probs.end(), data());
}

Categorical Categorical::normalized(std::span<const double> weights) {
  // One left-to-right pass checks each weight as it joins the sum, which
  // starts at 0.0; a bad weight is reported before a zero or overflowing
  // sum.
  bool finite_nonneg = true;
  double sum = 0.0;
  for (const double w : weights) {
    finite_nonneg = finite_nonneg && std::isfinite(w) && w >= 0.0;
    sum += w;
  }
  SYSUQ_EXPECT(finite_nonneg,
               "Categorical::normalized: weights must be finite and "
               "non-negative");
  SYSUQ_EXPECT(sum > 0.0, "Categorical::normalized: all weights zero");
  SYSUQ_EXPECT(std::isfinite(sum), "Categorical::normalized: weight sum overflow");
  Categorical c(weights.size());
  std::transform(weights.begin(), weights.end(), c.data(),
                 [sum](double v) { return v / sum; });
  SYSUQ_ASSERT_PROB_VEC(c.probs(), "Categorical");
  return c;
}

Categorical Categorical::uniform(std::size_t k) {
  SYSUQ_EXPECT(k != 0, "Categorical::uniform: k == 0");
  Categorical c(k);
  std::fill_n(c.data(), k, 1.0 / static_cast<double>(k));
  SYSUQ_ASSERT_PROB_VEC(c.probs(), "Categorical");
  return c;
}

Categorical Categorical::delta(std::size_t i, std::size_t k) {
  SYSUQ_EXPECT(i < k, "Categorical::delta: i >= k");
  Categorical c(k);
  c.data()[i] = 1.0;
  return c;
}

double Categorical::p(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Categorical::p: index");
  return data()[i];
}

double Categorical::entropy() const {
  double h = 0.0;
  for (double v : probs()) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

std::size_t Categorical::argmax() const {
  const auto p = probs();
  return static_cast<std::size_t>(
      std::distance(p.begin(), std::max_element(p.begin(), p.end())));
}

double Categorical::max_prob() const {
  const auto p = probs();
  return *std::max_element(p.begin(), p.end());
}

std::size_t Categorical::sample(Rng& rng) const { return rng.categorical(probs()); }

double Categorical::total_variation(const Categorical& other) const {
  SYSUQ_EXPECT(other.size() == size(),
               "Categorical::total_variation: size mismatch");
  const double* a = data();
  const double* b = other.data();
  double tv = 0.0;
  for (std::size_t i = 0; i < size_; ++i) tv += std::fabs(a[i] - b[i]);
  return 0.5 * tv;
}

Categorical Categorical::mixed(const Categorical& other, double w) const {
  SYSUQ_EXPECT(other.size() == size(), "Categorical::mixed: size mismatch");
  SYSUQ_ASSERT_PROB(w, "Categorical::mixed: w");
  const double* a = data();
  const double* b = other.data();
  Categorical m(size_);
  double* out = m.data();
  for (std::size_t i = 0; i < size_; ++i) out[i] = (1.0 - w) * a[i] + w * b[i];
  SYSUQ_ASSERT_PROB_VEC(m.probs(), "Categorical");
  return m;
}

// -------------------------------------------------------------- Bernoulli

Bernoulli::Bernoulli(double p) : p_(p) { SYSUQ_ASSERT_PROB(p_, "Bernoulli: p"); }

double Bernoulli::entropy() const {
  auto term = [](double q) { return q > 0.0 ? -q * std::log(q) : 0.0; };
  return term(p_) + term(1.0 - p_);
}

bool Bernoulli::sample(Rng& rng) const { return rng.bernoulli(p_); }

// --------------------------------------------------------------- Binomial

Binomial::Binomial(std::size_t n, double p) : n_(n), p_(p) {
  SYSUQ_ASSERT_PROB(p_, "Binomial: p");
}

double Binomial::pmf(std::size_t k) const {
  if (k > n_) return 0.0;
  return std::exp(log_pmf(k));
}

double Binomial::log_pmf(std::size_t k) const {
  if (k > n_) return -std::numeric_limits<double>::infinity();
  if (p_ == 0.0) return k == 0 ? 0.0 : -std::numeric_limits<double>::infinity();  // sysuq-lint-allow(float-eq): degenerate p exactly 0
  if (p_ == 1.0) return k == n_ ? 0.0 : -std::numeric_limits<double>::infinity();  // sysuq-lint-allow(float-eq): degenerate p exactly 1
  return log_binomial_coeff(n_, k) + static_cast<double>(k) * std::log(p_) +
         static_cast<double>(n_ - k) * std::log1p(-p_);
}

double Binomial::cdf(std::size_t k) const {
  if (k >= n_) return 1.0;
  // P(X <= k) = I_{1-p}(n-k, k+1)
  return reg_inc_beta(static_cast<double>(n_ - k), static_cast<double>(k) + 1.0,
                      1.0 - p_);
}

std::size_t Binomial::sample(Rng& rng) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n_; ++i) count += rng.bernoulli(p_) ? 1 : 0;
  return count;
}

// ---------------------------------------------------------------- Poisson

Poisson::Poisson(double lambda) : lambda_(lambda) {
  SYSUQ_EXPECT(std::isfinite(lambda_) && lambda_ > 0.0, "Poisson: lambda <= 0");
}

double Poisson::pmf(std::size_t k) const { return std::exp(log_pmf(k)); }

double Poisson::log_pmf(std::size_t k) const {
  return static_cast<double>(k) * std::log(lambda_) - lambda_ - log_factorial(k);
}

double Poisson::cdf(std::size_t k) const {
  return reg_upper_gamma(static_cast<double>(k) + 1.0, lambda_);
}

std::size_t Poisson::sample(Rng& rng) const {
  // Inversion by sequential search (adequate for the moderate lambdas the
  // library uses: event counts per scene / per observation window).
  const double l = std::exp(-lambda_);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > l);
  return k - 1;
}

// ----------------------------------------------------- CategoricalCounter

CategoricalCounter::CategoricalCounter(std::size_t k) : counts_(k, 0) {
  SYSUQ_EXPECT(k != 0, "CategoricalCounter: k == 0");
}

void CategoricalCounter::observe(std::size_t i) { observe(i, 1); }

void CategoricalCounter::observe(std::size_t i, std::size_t n) {
  if (i >= counts_.size())
    throw std::out_of_range("CategoricalCounter::observe: index");
  counts_[i] += n;
  total_ += n;
}

Categorical CategoricalCounter::mle() const {
  SYSUQ_EXPECT(total_ != 0, "CategoricalCounter::mle: no observations");
  std::vector<double> p(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  return Categorical(std::move(p));
}

Categorical CategoricalCounter::smoothed(double smoothing) const {
  SYSUQ_EXPECT(smoothing > 0.0, "CategoricalCounter::smoothed: smoothing <= 0");
  std::vector<double> w(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    w[i] = static_cast<double>(counts_[i]) + smoothing;
  return Categorical::normalized(std::move(w));
}

std::size_t CategoricalCounter::unseen_categories() const {
  return static_cast<std::size_t>(
      std::count(counts_.begin(), counts_.end(), std::size_t{0}));
}

double CategoricalCounter::good_turing_missing_mass() const {
  if (total_ == 0) return 1.0;  // with no data, all mass is unseen
  const auto singletons = static_cast<double>(
      std::count(counts_.begin(), counts_.end(), std::size_t{1}));
  return singletons / static_cast<double>(total_);
}

}  // namespace sysuq::prob
