// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a layer's
// public functions. Spans are kept in memory (one vector append per open)
// and written out when the run ends. Single-threaded by design: the
// benchmark is one closed-loop client, and the engine's own pool threads
// are never spanned from here.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Op id stamped on every span opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens a span (`name` must be a string literal); returns its index,
  /// or -1 when recording is off.
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  /// Every recorded span, names resolved.
  [[nodiscard]] std::vector<SpanRecord> records() const;
  [[nodiscard]] std::size_t size() const { return raw_.size(); }

  /// Writes the spans as a JSON array of
  /// {"name","start_ns","end_ns","parent","op"} objects.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Raw {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t op;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::int64_t current_ = -1;
  std::vector<Raw> raw_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span on the global tracer; free when recording is off.
class Span {
 public:
  explicit Span(const char* name) : index_(Tracer::global().open(name)) {}
  ~Span() {
    if (index_ >= 0) Tracer::global().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
