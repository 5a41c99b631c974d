// Lock-discipline fixture, clean twin. Never compiled.
#include "obs/cache.hpp"

namespace sysuq::obs {

void Cache::put(int v) {
  ++puts_;  // owner-confined: no lock needed
  const std::lock_guard<std::mutex> lock(mu_);
  last_ = v;
  hits_.store(hits_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

int Cache::approx() const {
  return static_cast<int>(hits_.load(std::memory_order_relaxed));
}

bool Cache::ready() const {
  return ready_.load(std::memory_order_acquire);  // within declared ceiling
}

}  // namespace sysuq::obs
