// Discrete distributions: Categorical, Bernoulli, Binomial, Poisson, and
// frequentist estimation of categoricals from observed counts.
//
// The Categorical is the workhorse of the Bayesian-network layer (every
// CPT row is a categorical) and of the paper's Table I example.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "prob/rng.hpp"

namespace sysuq::prob {

/// A probability mass function over {0, .., k-1}.
///
/// Invariant: probabilities are non-negative and sum to 1 within
/// tolerance::kProbSum (a contract checked at construction; `normalized`
/// relaxes the input).
///
/// Up to kInline probabilities live inside the object, so copying or
/// moving a small distribution never touches the allocator; larger ones
/// own a heap array. A moved-from Categorical is empty (size 0) until it
/// is assigned to.
class Categorical {
 public:
  /// Constructs from probabilities that must already sum to one.
  explicit Categorical(std::span<const double> probs);

  /// As above; also takes a braced list, `Categorical({0.9, 0.1})`.
  explicit Categorical(const std::vector<double>& probs)
      : Categorical(std::span<const double>(probs)) {}

  Categorical(const Categorical& other);
  Categorical(Categorical&& other) noexcept;
  Categorical& operator=(const Categorical& other);
  Categorical& operator=(Categorical&& other) noexcept;
  ~Categorical() { release(); }

  /// Constructs by normalizing non-negative weights (at least one > 0).
  [[nodiscard]] static Categorical normalized(std::span<const double> weights);

  /// As above; also takes a braced list.
  [[nodiscard]] static Categorical normalized(const std::vector<double>& weights) {
    return normalized(std::span<const double>(weights));
  }

  /// Uniform distribution over k categories.
  [[nodiscard]] static Categorical uniform(std::size_t k);

  /// Point mass on category i out of k.
  [[nodiscard]] static Categorical delta(std::size_t i, std::size_t k);

  /// Number of categories.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// P(X = i).
  [[nodiscard]] double p(std::size_t i) const;

  /// Full probability vector: a view into this object when called on an
  /// lvalue, an owning copy when called on an rvalue, so
  /// `auto p = f().probs();` holds its own data instead of dangling.
  [[nodiscard]] std::span<const double> probs() const& { return {data(), size_}; }
  [[nodiscard]] std::vector<double> probs() const&& {
    return std::vector<double>(data(), data() + size_);
  }

  /// Shannon entropy in nats.
  [[nodiscard]] double entropy() const;

  /// Index of the most probable category (lowest index on ties).
  [[nodiscard]] std::size_t argmax() const;

  /// Maximum probability value.
  [[nodiscard]] double max_prob() const;

  /// Draws a category.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// Total-variation distance to another categorical of equal size.
  [[nodiscard]] double total_variation(const Categorical& other) const;

  /// Mixes with another categorical: (1-w)*this + w*other.
  [[nodiscard]] Categorical mixed(const Categorical& other, double w) const;

 private:
  /// Distributions of at most this many categories are stored inline:
  /// fault-tree events (2 states) and Table I's variables (3 and 4) fit.
  static constexpr std::size_t kInline = 4;

  /// k probabilities, all zero.
  explicit Categorical(std::size_t k);

  [[nodiscard]] bool is_inline() const { return size_ <= kInline; }
  [[nodiscard]] const double* data() const { return is_inline() ? store_.local : store_.heap; }
  [[nodiscard]] double* data() { return is_inline() ? store_.local : store_.heap; }
  void release() noexcept {
    if (!is_inline()) delete[] store_.heap;
  }

  union Storage {
    double local[kInline];
    double* heap;
  };
  std::size_t size_;
  Storage store_;
};

inline Categorical::Categorical(const Categorical& other)
    : size_(other.size_), store_(other.store_) {
  if (!is_inline()) {
    store_.heap = new double[size_];
    std::copy_n(other.store_.heap, size_, store_.heap);
  }
}

// Taking the storage bytes moves either the inline probabilities or the
// heap pointer; the source is left empty, which owns nothing.
inline Categorical::Categorical(Categorical&& other) noexcept
    : size_(other.size_), store_(other.store_) {
  other.size_ = 0;
}

inline Categorical& Categorical::operator=(const Categorical& other) {
  if (this != &other) *this = Categorical(other);
  return *this;
}

inline Categorical& Categorical::operator=(Categorical&& other) noexcept {
  if (this != &other) {
    release();
    size_ = other.size_;
    store_ = other.store_;
    other.size_ = 0;
  }
  return *this;
}

/// Bernoulli(p) over {0, 1}.
class Bernoulli {
 public:
  explicit Bernoulli(double p);
  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] double pmf(bool x) const { return x ? p_ : 1.0 - p_; }
  [[nodiscard]] double mean() const { return p_; }
  [[nodiscard]] double variance() const { return p_ * (1.0 - p_); }
  [[nodiscard]] double entropy() const;
  [[nodiscard]] bool sample(Rng& rng) const;

 private:
  double p_;
};

/// Binomial(n, p) over {0..n}.
class Binomial {
 public:
  Binomial(std::size_t n, double p);
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] double pmf(std::size_t k) const;
  [[nodiscard]] double log_pmf(std::size_t k) const;
  [[nodiscard]] double cdf(std::size_t k) const;
  [[nodiscard]] double mean() const { return static_cast<double>(n_) * p_; }
  [[nodiscard]] double variance() const {
    return static_cast<double>(n_) * p_ * (1.0 - p_);
  }
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::size_t n_;
  double p_;
};

/// Poisson(lambda) over non-negative integers.
class Poisson {
 public:
  explicit Poisson(double lambda);
  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] double pmf(std::size_t k) const;
  [[nodiscard]] double log_pmf(std::size_t k) const;
  [[nodiscard]] double cdf(std::size_t k) const;
  [[nodiscard]] double mean() const { return lambda_; }
  [[nodiscard]] double variance() const { return lambda_; }
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  double lambda_;
};

/// Frequentist estimator of a categorical from observed counts — the
/// "model B" estimation procedure of the paper's two-planet example and
/// the field-observation engine of the uncertainty-removal loop.
class CategoricalCounter {
 public:
  /// k categories, all counts start at zero.
  explicit CategoricalCounter(std::size_t k);

  /// Records one observation of category i.
  void observe(std::size_t i);

  /// Records `n` observations of category i.
  void observe(std::size_t i, std::size_t n);

  /// Total number of observations.
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Raw counts.
  [[nodiscard]] const std::vector<std::size_t>& counts() const { return counts_; }

  /// Maximum-likelihood estimate (throws if no observations yet).
  [[nodiscard]] Categorical mle() const;

  /// Laplace-smoothed estimate with pseudo-count `smoothing` per category.
  [[nodiscard]] Categorical smoothed(double smoothing = 1.0) const;

  /// Number of categories never observed — a crude ontological indicator.
  [[nodiscard]] std::size_t unseen_categories() const;

  /// Good–Turing missing-mass estimate: expected probability of the *next*
  /// observation being a category seen exactly zero times, estimated as
  /// (#categories seen exactly once) / total. This is the library's
  /// forecast of ontological uncertainty from frequency data alone.
  [[nodiscard]] double good_turing_missing_mass() const;

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace sysuq::prob
