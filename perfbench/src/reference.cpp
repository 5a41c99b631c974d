#include "reference.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <vector>

namespace perfbench {

namespace {
volatile double g_sink = 0.0;
}  // namespace

// A miniature of the engine's inner work, so contention slows it about as
// much as it slows an op: small-table products and sums over 4-state
// variables, a heap allocation per step and ordered-map lookups.
double reference_ns() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::map<int, int> keys;
  for (int k = 0; k < 32; ++k) keys[(k * 7919) % 97] = k;
  std::vector<double> msg(4, 0.25);
  double s = 0.0;
  for (int step = 0; step < 400; ++step) {
    auto table = std::make_unique<std::vector<double>>(64);
    for (std::size_t a = 0; a < 4; ++a)
      for (std::size_t b = 0; b < 4; ++b)
        for (std::size_t c = 0; c < 4; ++c)
          (*table)[(a * 4 + b) * 4 + c] =
              msg[a] * (0.1 + 0.2 * static_cast<double>((a + b * c + step) & 3));
    std::vector<double> next(4, 0.0);
    for (std::size_t i = 0; i < 64; ++i) next[i & 3] += (*table)[i];
    double z = 0.0;
    for (const double v : next) z += v;
    for (std::size_t i = 0; i < 4; ++i) msg[i] = next[i] / z;
    s += msg[step & 3] + static_cast<double>(keys.find(step % 97) != keys.end());
  }
  g_sink = g_sink + s;
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace perfbench
