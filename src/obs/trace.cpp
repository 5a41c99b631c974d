#include "obs/trace.hpp"

#if !defined(SYSUQ_OBS_OFF)

#include <chrono>
#include <functional>
#include <thread>

#include "core/contracts.hpp"
#include "core/json.hpp"

namespace sysuq::obs {

namespace {

// Nesting depth of the calling thread's live spans.
thread_local std::uint32_t t_span_depth = 0;

std::uint64_t current_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

std::uint64_t trace_now_us() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

TraceSink& TraceSink::global() {
  static TraceSink sink;
  return sink;
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  SYSUQ_EXPECT(capacity != 0, "obs::TraceSink: zero capacity");
  ring_.resize(capacity_);
}

void TraceSink::record(const TraceEvent& proto) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  TraceEvent& slot = ring_[seq_ % capacity_];
  slot = proto;
  slot.seq = seq_;
  ++seq_;
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t buffered = seq_ < capacity_ ? seq_ : capacity_;
  std::vector<TraceEvent> out;
  out.reserve(buffered);
  // Oldest surviving event first: seq_ - buffered .. seq_ - 1.
  for (std::uint64_t s = seq_ - buffered; s < seq_; ++s)
    out.push_back(ring_[s % capacity_]);
  return out;
}

std::uint64_t TraceSink::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return seq_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return seq_ > capacity_ ? seq_ - capacity_ : 0;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& e : ring_) e = TraceEvent{};
  seq_ = 0;
}

std::string TraceSink::to_chrome_json() const {
  const auto events = snapshot();

  // Per-trace grouping: each distinct trace_id becomes a Chrome
  // "process" (pid 2, 3, ... in order of first appearance); untraced
  // events (trace_id == 0) stay under pid 1.
  std::vector<std::uint64_t> trace_order;
  const auto pid_of = [&](std::uint64_t trace_id) -> std::uint64_t {
    if (trace_id == 0) return 1;
    for (std::size_t i = 0; i < trace_order.size(); ++i)
      if (trace_order[i] == trace_id) return 2 + i;
    trace_order.push_back(trace_id);
    return 1 + trace_order.size();
  };
  bool any_untraced = false;
  for (const auto& e : events) {
    if (e.trace_id == 0) {
      any_untraced = true;
    } else {
      (void)pid_of(e.trace_id);
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };

  // Process-name metadata first, so viewers label the trace groups.
  if (any_untraced) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"untraced\"}}";
  }
  for (std::size_t i = 0; i < trace_order.size(); ++i) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(2 + i) + ",\"args\":{\"name\":\"trace " +
           std::to_string(trace_order[i]) + "\"}}";
  }

  // Complete ("X") slices in record order.
  for (const auto& e : events) {
    sep();
    out += "{\"name\":\"";
    json::append_escaped(out, e.name);
    out += "\",\"cat\":\"sysuq\",\"ph\":\"X\",\"pid\":" +
           std::to_string(pid_of(e.trace_id)) +
           ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(e.start_us) +
           ",\"dur\":" + std::to_string(e.dur_us) +
           ",\"args\":{\"depth\":" + std::to_string(e.depth) +
           ",\"trace\":" + std::to_string(e.trace_id) +
           ",\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent_span) + "}}";
  }

  // Flow arrows for parent/child pairs that crossed threads (the pool
  // handoff): an "s"/"f" pair keyed by the child's span id, anchored at
  // the two slices' start timestamps.
  for (const auto& e : events) {
    if (e.parent_span == 0) continue;
    const TraceEvent* parent = nullptr;
    for (const auto& p : events) {
      if (p.span_id == e.parent_span) {
        parent = &p;
        break;
      }
    }
    if (parent == nullptr || parent->tid == e.tid) continue;
    const std::string pid = std::to_string(pid_of(e.trace_id));
    const std::string id = std::to_string(e.span_id);
    sep();
    out += "{\"name\":\"handoff\",\"cat\":\"sysuq\",\"ph\":\"s\",\"id\":" +
           id + ",\"pid\":" + pid + ",\"tid\":" + std::to_string(parent->tid) +
           ",\"ts\":" + std::to_string(parent->start_us) + "}";
    sep();
    out += "{\"name\":\"handoff\",\"cat\":\"sysuq\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":" +
           id + ",\"pid\":" + pid + ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(e.start_us) + "}";
  }

  out += "]}";
  return out;
}

Span::Span(std::string_view name, TraceSink& sink) noexcept
    : sink_(sink.enabled() ? &sink : nullptr), name_(name) {
  if (sink_ != nullptr) {
    depth_ = ++t_span_depth;
    // Join the thread's current trace (parenting to its innermost live
    // span) or root a new one, then become the context for children.
    const TraceContext cur = current_context();
    trace_id_ = cur.active() ? cur.trace_id : new_trace_id();
    parent_span_ = cur.parent_span;
    span_id_ = new_span_id();
    saved_ = detail::exchange_context(TraceContext{trace_id_, span_id_});
    start_us_ = trace_now_us();
  }
}

Span::~Span() {
  if (sink_ != nullptr) {
    const std::uint64_t end_us = trace_now_us();
    TraceEvent e;
    e.name.assign(name_);
    e.start_us = start_us_;
    e.dur_us = end_us - start_us_;
    e.depth = depth_;
    e.tid = current_tid();
    e.trace_id = trace_id_;
    e.span_id = span_id_;
    e.parent_span = parent_span_;
    sink_->record(e);
    (void)detail::exchange_context(saved_);
    --t_span_depth;
  }
}

}  // namespace sysuq::obs

#endif  // !SYSUQ_OBS_OFF
