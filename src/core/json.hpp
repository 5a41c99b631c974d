// The text formatting shared by the JSON and Prometheus exporters, the
// SLO report and the EXPLAIN profiles, so every document the library
// writes spells numbers and strings the same way. Header-only: it builds
// with the obs layer compiled out, where only the profiles use it.
#pragma once

#include <charconv>
#include <string>

namespace sysuq::json {

/// Shortest decimal representation that round-trips (so "1.5" stays
/// "1.5", not "1.5000000000000000"), for exporters and goldens.
inline std::string fmt_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Appends `s` as the body of a JSON string. Minimal escaping: names and
/// labels are code- or model-controlled, so only the characters that
/// would break the document are handled; other control characters are
/// dropped.
inline void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
}

}  // namespace sysuq::json
