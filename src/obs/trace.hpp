// sysuq::obs — scoped tracing for the inference stack.
//
// `Span` is an RAII scoped timer: it stamps the wall clock at
// construction and records a completed event into a `TraceSink` at
// destruction, carrying the per-thread nesting depth so parent/child
// structure survives into the export. The sink is a bounded ring buffer
// (old events are overwritten, never reallocated past capacity) with a
// Chrome `trace_event`-format JSON exporter — load the output in
// chrome://tracing or Perfetto.
//
// Tracing is opt-in: the global sink starts disabled, and a `Span`
// created against a disabled sink never reads the clock. With
// `-DSYSUQ_OBS=OFF` the whole layer compiles to inline no-ops.
//
// Thread safety: `record`, `snapshot`, exporters and the enable switch
// are safe to call concurrently; `Span` itself is used from one thread
// (its depth bookkeeping is thread-local).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

#if !defined(SYSUQ_OBS_OFF)
#include <atomic>
#include <mutex>
#endif

namespace sysuq::obs {

/// One completed span, timestamps in microseconds since the process
/// trace epoch (the first call to `trace_now_us`).
struct TraceEvent {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t depth = 0;  ///< 1 = top-level span within its thread
  std::uint64_t tid = 0;
  std::uint64_t seq = 0;  ///< global record order
  std::uint64_t trace_id = 0;     ///< query trace this span belongs to (0 = untraced)
  std::uint64_t span_id = 0;      ///< process-unique id of this span (0 = unassigned)
  std::uint64_t parent_span = 0;  ///< span id of the parent (0 = trace root)
};

#if !defined(SYSUQ_OBS_OFF)

/// Microseconds on the steady clock since the process trace epoch.
[[nodiscard]] std::uint64_t trace_now_us() noexcept;

/// Bounded ring buffer of completed spans.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The process-wide sink `Span` records into by default. Disabled
  /// until `set_enabled(true)`.
  static TraceSink& global();

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one completed span: every field except `seq` (assigned by
  /// the sink) is taken from `proto`. Ignored while the sink is
  /// disabled. `Span` records through it; replaying pinned events into a
  /// sink (exporter goldens, merging foreign traces) does too.
  // sysuq-lint-allow(contract-coverage): hot path gated by enabled(); any event is recordable
  void record(const TraceEvent& proto);

  /// Buffered events, oldest first (ascending `seq`).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events accepted since construction / the last clear.
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events overwritten by newer ones (recorded() - buffered).
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// Chrome trace_event JSON ("X" complete events, ts/dur in
  /// microseconds); loadable in chrome://tracing and Perfetto.
  ///
  /// Traced events are grouped per trace: each distinct `trace_id`
  /// becomes its own Chrome "process" (pid 2, 3, ... in first-seen
  /// order, named via `process_name` metadata), untraced events stay
  /// under pid 1. Each slice carries `args.{depth,trace,span,parent}`,
  /// and a parent/child pair recorded on *different* threads emits a
  /// flow-event arrow ("s"/"f" pair keyed by the child span id) so the
  /// cross-thread handoff is visible in chrome://tracing.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // sysuq-guarded-by(mu_)
  std::size_t capacity_;          // sysuq-thread-confined(init)
  // == events accepted; next slot is seq_ % capacity_.  sysuq-guarded-by(mu_)
  std::uint64_t seq_ = 0;
  std::atomic<bool> enabled_{false};
};

/// RAII scoped timer recording into a sink at destruction. `name` must
/// outlive the span (string literals in practice). Construction against
/// a disabled sink costs one relaxed load; the clock is never read.
///
/// A span joins the calling thread's current `TraceContext`: it adopts
/// the context's trace and parents to the innermost live span, or roots
/// a brand-new trace when no context is active. While live, it is the
/// context (children parent to it); destruction restores the previous
/// context.
class Span {
 public:
  explicit Span(std::string_view name, TraceSink& sink = TraceSink::global()) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  TraceSink* sink_;  // null when the sink was disabled at construction
  std::string_view name_;
  std::uint64_t start_us_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_ = 0;
  TraceContext saved_{};  // context to restore at destruction
};

#else  // SYSUQ_OBS_OFF — inline no-ops.

[[nodiscard]] inline std::uint64_t trace_now_us() noexcept { return 0; }

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static TraceSink& global() {
    static TraceSink s;
    return s;
  }
  explicit TraceSink(std::size_t = kDefaultCapacity) noexcept {}
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  void set_enabled(bool) noexcept {}
  [[nodiscard]] bool enabled() const noexcept { return false; }
  void record(const TraceEvent&) noexcept {}
  [[nodiscard]] std::vector<TraceEvent> snapshot() const { return {}; }
  [[nodiscard]] std::size_t capacity() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  void clear() noexcept {}
  [[nodiscard]] std::string to_chrome_json() const { return "{}"; }
};

class Span {
 public:
  explicit Span(std::string_view, TraceSink& = TraceSink::global()) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // SYSUQ_OBS_OFF

}  // namespace sysuq::obs
