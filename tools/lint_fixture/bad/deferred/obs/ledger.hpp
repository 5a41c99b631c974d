// Deferred-guard fixture: ledger.cpp constructs a unique_lock with
// std::defer_lock and writes a guarded member before locking it. A
// deferred guard holds nothing until its lock() call, so
// guard-consistency flags that write — one violation (lock-discipline,
// also run, checks only atomic orders). Never compiled.
#pragma once

#include <mutex>

namespace sysuq::obs {

class Ledger {
 public:
  void record(double v);
  void settle(double v);

 private:
  mutable std::mutex mu_;
  double total_ = 0.0;  // sysuq-guarded-by(mu_)
};

}  // namespace sysuq::obs
