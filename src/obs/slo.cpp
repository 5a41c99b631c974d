#include "obs/slo.hpp"

#if !defined(SYSUQ_OBS_OFF)

#include <cstdint>

#include "core/contracts.hpp"
#include "core/json.hpp"

namespace sysuq::obs {

namespace {

using json::fmt_double;

std::uint64_t sub_clamped(std::uint64_t later, std::uint64_t earlier) {
  return later > earlier ? later - earlier : 0;
}

}  // namespace

double quantile(const HistogramSnapshot& h, double q) {
  SYSUQ_EXPECT(q >= 0.0 && q <= 1.0, "obs::quantile: q must be in [0, 1]");
  if (h.count == 0 || h.bounds.empty() ||
      h.counts.size() != h.bounds.size() + 1) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.bounds.size(); ++b) {
    const std::uint64_t in_bucket = h.counts[b];
    if (static_cast<double>(cumulative + in_bucket) >= rank &&
        in_bucket > 0) {
      // Interpolate by the rank's position inside this bucket. The
      // first bucket's lower edge is taken as 0 (latency/count
      // histograms are non-negative by construction).
      const double lo = b == 0 ? 0.0 : h.bounds[b - 1];
      const double hi = h.bounds[b];
      const double into =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      const double clamped = into < 0.0 ? 0.0 : (into > 1.0 ? 1.0 : into);
      return lo + clamped * (hi - lo);
    }
    cumulative += in_bucket;
  }
  // Rank falls in the +Inf bucket: no finite upper edge to interpolate
  // against, so clamp to the largest finite bound (Prometheus behavior).
  return h.bounds.back();
}

double quantile(const Histogram& h, double q) {
  HistogramSnapshot snap;
  snap.bounds = h.bounds();
  snap.counts = h.counts();
  snap.count = h.count();
  snap.sum = h.sum();
  return quantile(snap, q);
}

RegistrySnapshot snapshot_delta(const RegistrySnapshot& earlier,
                                const RegistrySnapshot& later) {
  RegistrySnapshot out;
  for (const auto& [name, v] : later.counters) {
    const auto it = earlier.counters.find(name);
    out.counters.emplace(name,
                         it == earlier.counters.end() ? v
                                                      : sub_clamped(v, it->second));
  }
  // Gauges are last-value instruments: the window's value is the later
  // reading, not a difference.
  out.gauges = later.gauges;
  for (const auto& [name, h] : later.histograms) {
    const auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end() || it->second.bounds != h.bounds) {
      out.histograms.emplace(name, h);
      continue;
    }
    HistogramSnapshot w;
    w.bounds = h.bounds;
    w.counts.resize(h.counts.size());
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      const std::uint64_t before =
          i < it->second.counts.size() ? it->second.counts[i] : 0;
      w.counts[i] = sub_clamped(h.counts[i], before);
    }
    w.count = sub_clamped(h.count, it->second.count);
    const double dsum = h.sum - it->second.sum;
    w.sum = dsum > 0.0 ? dsum : 0.0;
    out.histograms.emplace(name, std::move(w));
  }
  return out;
}

std::string slo_report(const RegistrySnapshot& snap) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + fmt_double(h.sum) +
           ",\"p50\":" + fmt_double(quantile(h, 0.50)) +
           ",\"p95\":" + fmt_double(quantile(h, 0.95)) +
           ",\"p99\":" + fmt_double(quantile(h, 0.99)) + "}";
  }
  out += "}";
  return out;
}

std::string slo_report() { return slo_report(Registry::global().snapshot()); }

}  // namespace sysuq::obs

#endif  // !SYSUQ_OBS_OFF
