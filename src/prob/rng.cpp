#include "prob/rng.hpp"

#include <stdexcept>

#include "obs/registry.hpp"

namespace sysuq::prob {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t s = seed;
  // Expand the seed through SplitMix64 into a full seed sequence.
  std::seed_seq seq{static_cast<std::uint32_t>(splitmix64(s)),
                    static_cast<std::uint32_t>(splitmix64(s)),
                    static_cast<std::uint32_t>(splitmix64(s)),
                    static_cast<std::uint32_t>(splitmix64(s))};
  engine_.seed(seq);
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::size_t Rng::uniform_index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_index: n == 0");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

double Rng::gaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::gaussian(double mean, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::gaussian: sigma < 0");
  if (sigma == 0.0) return mean;  // sysuq-lint-allow(float-eq): degenerate sigma = 0
  return std::normal_distribution<double>(mean, sigma)(engine_);
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) throw std::invalid_argument("Rng::exponential: rate <= 0");
  return std::exponential_distribution<double>(rate)(engine_);
}

double Rng::gamma(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0))
    throw std::invalid_argument("Rng::gamma: require shape, scale > 0");
  return std::gamma_distribution<double>(shape, scale)(engine_);
}

bool Rng::bernoulli(double p) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("Rng::bernoulli: p outside [0, 1]");
  return uniform() < p;
}

namespace {

// Sum of `weights`, which must be non-negative with a positive total.
double weight_total(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::categorical: negative weight");
    total += w;
  }
  if (!(total > 0.0))
    throw std::invalid_argument("Rng::categorical: all weights zero");
  return total;
}

std::size_t pick(std::span<const double> weights, double total, double u) {
  u *= total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  // Numerical edge: rounding left u >= 0 after every bucket. The draw
  // belongs to the last bucket that has mass, never to a trailing
  // zero-weight one; total > 0 guarantees there is such a bucket.
  std::size_t last = weights.size() - 1;
  while (!(weights[last] > 0.0)) --last;
  return last;
}

}  // namespace

std::size_t Rng::categorical(std::span<const double> weights) {
  const double total = weight_total(weights);
  return pick(weights, total, uniform());
}

std::size_t categorical_index(std::span<const double> weights, double u) {
  if (!(u >= 0.0 && u < 1.0))
    throw std::invalid_argument("categorical_index: u outside [0, 1)");
  return pick(weights, weight_total(weights), u);
}

Rng Rng::split(std::uint64_t salt) {
  static obs::Counter& splits =
      obs::Registry::global().counter("prob.rng.splits");
  splits.inc();
  std::uint64_t s = seed_ ^ (salt * 0xD6E8FEB86659FD93ULL);
  const std::uint64_t child_seed = splitmix64(s) ^ next_u64();
  return Rng(child_seed);
}

std::uint64_t Rng::next_u64() { return engine_(); }

}  // namespace sysuq::prob
