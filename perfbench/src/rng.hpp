// The benchmark's own input generator RNG (splitmix64), so the inputs a
// seed produces never change with the library's RNG.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// An independent stream for sub-generator `salt`.
  [[nodiscard]] Rng split(std::uint64_t salt) const {
    Rng r(state_ ^ (salt * 0xD1B54A32D192ED03ULL));
    r.next();
    return r;
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
