// Deterministic, splittable random number generation.
//
// All stochastic components of the library draw through `Rng` so that every
// experiment is reproducible from a single seed. `Rng::split` derives an
// independent stream, which lets parallel or modular components (e.g. each
// sensor of a redundant perception architecture) own their own stream
// without cross-contaminating draw sequences when one component changes.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace sysuq::prob {

/// Seedable pseudo-random generator wrapping a 64-bit Mersenne Twister
/// with SplitMix64-based seeding and stream derivation.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  // sysuq-lint-allow(contract-coverage): every 64-bit seed is valid
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [0, n) — n must be > 0.
  [[nodiscard]] std::size_t uniform_index(std::size_t n);

  /// Standard normal draw (Box–Muller-free: std::normal_distribution).
  [[nodiscard]] double gaussian();

  /// Normal draw with given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double gaussian(double mean, double sigma);

  /// Exponential draw with given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate);

  /// Gamma draw with given shape and scale (both > 0).
  [[nodiscard]] double gamma(double shape, double scale);

  /// Bernoulli draw with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Draws an index according to (non-negative, not necessarily
  /// normalized) weights. Throws if all weights are zero. Never draws a
  /// zero-weight index (see categorical_index).
  [[nodiscard]] std::size_t categorical(std::span<const double> weights);

  /// As above; also takes a braced list.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights) {
    return categorical(std::span<const double>(weights));
  }

  /// Derives an independent child stream. Children with distinct salts are
  /// decorrelated from each other and from the parent.
  [[nodiscard]] Rng split(std::uint64_t salt);

  /// Raw 64 bits (for hashing / seeding downstream components).
  [[nodiscard]] std::uint64_t next_u64();

  /// The seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// The index `Rng::categorical(weights)` draws when its uniform draw is
/// `u` in [0, 1): the first i whose running weight sum exceeds u times
/// the total. When rounding leaves u * total at or above every running
/// sum (u within a few ulps of 1), the last index of positive weight.
/// Throws as `Rng::categorical` does, and on u outside [0, 1).
[[nodiscard]] std::size_t categorical_index(std::span<const double> weights, double u);

/// SplitMix64 step — a high-quality 64-bit mixer, used for seed derivation.
// sysuq-lint-allow(contract-coverage): pure bit mixer, total over uint64 state
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace sysuq::prob
