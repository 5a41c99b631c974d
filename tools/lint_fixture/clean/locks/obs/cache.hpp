// Lock-discipline fixture, clean twin: guarded writes happen under a
// lock_guard, the owner-confined `puts_` is written with no lock held
// (guard-consistency owns unlocked writes, and a confined member needs
// no lock), and loads stay within each member's declared memory-order
// ceiling (relaxed by default; `ready_` raises its ceiling to acquire
// with a sysuq-atomic-order marker). Never compiled.
#pragma once

#include <atomic>
#include <mutex>

namespace sysuq::obs {

class Cache {
 public:
  // sysuq-lint-allow(contract-coverage): lock fixture, contracts out of scope
  void put(int v);
  // sysuq-lint-allow(contract-coverage): lock fixture, contracts out of scope
  int approx() const;
  // sysuq-lint-allow(contract-coverage): lock fixture, contracts out of scope
  bool ready() const;

 private:
  mutable std::mutex mu_;
  int last_ = 0;  // sysuq-guarded-by(mu_)
  int puts_ = 0;  // sysuq-thread-confined(owner)
  std::atomic<long> hits_{0};
  std::atomic<bool> ready_{false};  // sysuq-atomic-order(acquire)
};

}  // namespace sysuq::obs
