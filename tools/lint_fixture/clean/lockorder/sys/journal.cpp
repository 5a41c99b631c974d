// lock-order fixture, clean twin. Never compiled.
#include "sys/journal.hpp"

#include "core/contracts.hpp"

namespace sysuq::sys {

void Journal::append(int entry) {
  SYSUQ_EXPECT(entry >= 0, "entries are non-negative");
  std::lock_guard<std::mutex> a(mu_);
  std::lock_guard<std::mutex> b(other_);
  entries_ += static_cast<std::size_t>(entry != 0);
}

// `later` is never locked, so other_ is not held when mu_ is taken.
void Journal::rotate() {
  SYSUQ_EXPECT(true, "rotate has no inputs to validate");
  std::unique_lock<std::mutex> later(other_, std::defer_lock);
  std::lock_guard<std::mutex> a(mu_);
  entries_ = 0;
}

}  // namespace sysuq::sys
