// lock-order fixture, clean twin: a guard constructed with
// std::defer_lock holds nothing until it is locked. append() takes mu_
// then other_; rotate() defers other_ and then takes mu_, which adds no
// edge out of other_, so the acquisition graph stays acyclic. Never
// compiled.
#pragma once

#include <cstddef>
#include <mutex>

namespace sysuq::sys {

class Journal {
 public:
  void append(int entry);
  void rotate();

 private:
  std::mutex mu_;
  std::mutex other_;
  std::size_t entries_ = 0;  // sysuq-guarded-by(mu_)
};

}  // namespace sysuq::sys
