#include "spans.hpp"

#include <fstream>

namespace perfbench {

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  raw_.push_back(Raw{name, now_ns(), 0, current_, op_});
  current_ = static_cast<std::int64_t>(raw_.size()) - 1;
  return current_;
}

void Tracer::close(std::int64_t index) {
  auto& span = raw_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

std::vector<SpanRecord> Tracer::records() const {
  std::vector<SpanRecord> out;
  out.reserve(raw_.size());
  for (const auto& r : raw_)
    out.push_back(SpanRecord{r.name, r.start_ns, r.end_ns, r.parent, r.op});
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const auto& r = raw_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
