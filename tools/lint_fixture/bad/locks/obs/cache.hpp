// Lock-discipline fixture: Cache owns a std::mutex, so stricter-than-
// declared atomic orders in cache.cpp are flagged, and guard-consistency
// flags `last_`, unannotated and written unlocked. Never compiled.
#pragma once

#include <atomic>
#include <mutex>

namespace sysuq::obs {

class Cache {
 public:
  void put(int v);
  int approx() const;

 private:
  mutable std::mutex mu_;
  int last_ = 0;
  std::atomic<long> hits_{0};
};

}  // namespace sysuq::obs
