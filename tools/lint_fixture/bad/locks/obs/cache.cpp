// Lock-discipline fixture: one bare (seq_cst) load on an atomic whose
// declared ceiling is relaxed and one explicit acquire load; the
// unlocked write to `last_` is guard-consistency's. Never compiled.
#include "obs/cache.hpp"

namespace sysuq::obs {

void Cache::put(int v) {
  last_ = v;  // write without holding mu_
  hits_.store(hits_.load(std::memory_order_acquire) + 1,
              std::memory_order_relaxed);
}

int Cache::approx() const {
  return static_cast<int>(hits_.load());  // bare load defaults to seq_cst
}

}  // namespace sysuq::obs
