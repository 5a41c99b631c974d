// Memo: the inference engine's one cache type — a thread-safe hash map
// from a key to a value built on first use, with per-instance
// hit/miss/entry counts and their process-wide obs mirrors. Lazy, below,
// holds one unkeyed value built once.
//
// Keys are sequences — an evidence signature (variable ids) or an
// evidence assignment ((id, state) pairs) — and KeyHash mixes every
// element of one, in order. The hash only picks a bucket: keys still
// compare whole, so two assignments never share an entry. A memo keeps
// every entry until clear(); bounding it (an entry or byte budget with
// eviction) is still open.
//
// A miss builds its value outside the lock, so a slow build (an ordering
// heuristic, a junction-tree calibration, a BP run) never serializes
// lookups of other keys. Two callers racing on one key both build and
// the first insert is kept; every builder the engine passes is
// deterministic, so the copies agree. A lookup may also reject the value
// stored (a BP run that did not certify what the caller reads): that
// counts as a miss, and the value built then overwrites the rejected one.
// `peek` reads without counting, for explain()'s cache-hit attribution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace sysuq::bayesnet {

/// A point-in-time view of one memo's counters: hits and misses since
/// construction, the last clear() or the last reset_stats(), and the
/// entries currently stored.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
  [[nodiscard]] double hit_rate() const {
    const std::size_t lookups = hits + misses;
    if (lookups == 0) return 0.0;
    return static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Memo's hash of a sequence key: every element (both members of a
/// pair) joins the state by one multiply, in order, and a splitmix64
/// finalizer spreads the result over the bucket index.
struct KeyHash {
  template <class T>
  std::size_t operator()(const std::vector<T>& key) const noexcept {
    std::uint64_t h = key.size();
    for (const T& x : key) h = mix(h, x);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t x) noexcept {
    return (h ^ x) * 0x9e3779b97f4a7c15ULL;
  }
  template <class A, class B>
  static std::uint64_t mix(std::uint64_t h, const std::pair<A, B>& x) noexcept {
    return mix(mix(h, x.first), x.second);
  }
};

template <class Key, class Value>
class Memo {
 public:
  /// Mirrors its events on the global registry: counters
  /// `<prefix>.hits` and `<prefix>.misses`, gauge `<prefix>.entries`.
  explicit Memo(std::string_view prefix)
      : hits_metric_(obs::Registry::global().counter(std::string(prefix) + ".hits")),
        misses_metric_(obs::Registry::global().counter(std::string(prefix) + ".misses")),
        entries_metric_(obs::Registry::global().gauge(std::string(prefix) + ".entries")) {}

  /// The value stored for `key`. On a miss, `build()` runs outside the
  /// lock and its result is stored unless a racing caller stored first;
  /// either way the first insert is returned.
  template <class Build>
  Value get(const Key& key, Build&& build) {
    return get(
        key, [](const Value&) { return true; },
        [&](bool) { return std::forward<Build>(build)(); });
  }

  /// The value stored for `key` when `accept(value)` holds (called under
  /// the lock: keep it O(1)). Otherwise — no entry, or one `accept`
  /// rejects — the lookup counts as a miss and `build(stale)` runs
  /// outside the lock, `stale` telling whether a rejected entry is
  /// there. Its result is stored, overwriting a rejected entry, unless a
  /// racing caller stored an accepted value first; the stored value is
  /// returned.
  template <class Accept, class Build>
  Value get(const Key& key, Accept&& accept, Build&& build) {
    bool stale = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (const auto it = map_.find(key); it != map_.end()) {
        if (accept(it->second)) {
          ++hits_;
          hits_metric_.inc();
          return it->second;
        }
        stale = true;
      }
      ++misses_;
      misses_metric_.inc();
    }
    Value value = std::forward<Build>(build)(stale);
    std::lock_guard<std::mutex> lk(mu_);
    const auto [it, inserted] = map_.try_emplace(key, std::move(value));
    if (!inserted && !accept(it->second)) it->second = std::move(value);
    entries_metric_.set(static_cast<double>(map_.size()));
    return it->second;
  }

  /// The value stored for `key`, if any. Counts nothing.
  [[nodiscard]] std::optional<Value> peek(const Key& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = map_.find(key);
    return it == map_.end() ? std::nullopt : std::optional<Value>(it->second);
  }

  [[nodiscard]] CacheStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {hits_, misses_, map_.size()};
  }

  /// Zeroes hits and misses, keeping every entry.
  void reset_stats() {
    std::lock_guard<std::mutex> lk(mu_);
    hits_ = 0;
    misses_ = 0;
  }

  /// Drops every entry and zeroes hits and misses (and the entries gauge).
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
    entries_metric_.set(0.0);
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<Key, Value, KeyHash> map_;  // sysuq-guarded-by(mu_)
  std::size_t hits_ = 0;      // sysuq-guarded-by(mu_)
  std::size_t misses_ = 0;    // sysuq-guarded-by(mu_)
  // Registry mirrors.  sysuq-thread-confined(init)
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;  // sysuq-thread-confined(init)
  obs::Gauge& entries_metric_;   // sysuq-thread-confined(init)
};

/// A value built once, on first use, and kept for the owner's life: the
/// engine's network-wide plan and compiled clique tree. Unlike Memo, the
/// first caller builds under the lock, so racing first callers wait for
/// that one build instead of building copies. A build that throws stores
/// nothing, and the next caller builds again.
template <class Value>
class Lazy {
 public:
  template <class Build>
  const Value& get(Build&& build) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!value_) value_.emplace(std::forward<Build>(build)());
    return *value_;
  }

  /// Whether the value is built. Builds nothing, for explain()'s
  /// cache-hit attribution.
  [[nodiscard]] bool ready() const {
    std::lock_guard<std::mutex> lk(mu_);
    return value_.has_value();
  }

 private:
  mutable std::mutex mu_;
  std::optional<Value> value_;  // sysuq-guarded-by(mu_)
};

}  // namespace sysuq::bayesnet
