// Deferred-guard fixture. Never compiled.
#include "obs/ledger.hpp"

namespace sysuq::obs {

void Ledger::record(double v) {
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  total_ = v;  // mu_ is not held yet
  lk.lock();
}

// The deferred guard holds mu_ from its lock() call on: no finding.
void Ledger::settle(double v) {
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  lk.lock();
  total_ += v;
}

}  // namespace sysuq::obs
