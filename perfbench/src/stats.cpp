#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

double tail_level(std::size_t n, double preferred, std::size_t min_beyond) {
  if (samples_beyond(n, preferred) >= min_beyond) return preferred;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (p < preferred && samples_beyond(n, p) >= min_beyond) return p;
  }
  return 50.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50.0);
}

std::vector<double> normalized(const std::vector<double>& wall,
                               const std::vector<double>& ref_ns,
                               double nominal_ns) {
  std::vector<double> out;
  out.reserve(wall.size());
  for (std::size_t i = 0; i < wall.size() && i + 1 < ref_ns.size(); ++i)
    out.push_back(wall[i] * nominal_ns * 2.0 / (ref_ns[i] + ref_ns[i + 1]));
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    const std::int64_t own = std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered);
    self[layer_of(s.name)] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
