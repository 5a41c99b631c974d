#include "obs/registry.hpp"

#if !defined(SYSUQ_OBS_OFF)

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/json.hpp"

namespace sysuq::obs {

namespace {

using json::fmt_double;

bool strictly_increasing_finite(const std::vector<double>& b) {
  if (b.empty()) return false;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!std::isfinite(b[i])) return false;
    if (i > 0 && !(b[i] > b[i - 1])) return false;
  }
  return true;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  SYSUQ_EXPECT(strictly_increasing_finite(bounds_),
               "obs::Histogram: bucket bounds must be non-empty, finite "
               "and strictly increasing");
}

void Histogram::observe(double x) noexcept {
  if (!metrics_enabled()) return;
  // Branchless binary search for the first bound >= x (`le` semantics).
  // The halving step compiles to a conditional move, so bucket choice
  // costs log2(bounds) data-independent steps instead of a linear scan
  // whose branch predictor is at the mercy of the value distribution.
  // NaN compares false everywhere and lands in bucket 0, exactly as the
  // old scan did.
  const double* base = bounds_.data();
  std::size_t n = bounds_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (base[half - 1] < x) ? half : 0;
    n -= half;
  }
  // n == 0 only when the bounds contract was compiled out; everything
  // then lands in the single (+Inf) bucket.
  const std::size_t b =
      n == 0 ? 0
             : static_cast<std::size_t>(base - bounds_.data()) +
                   ((*base < x) ? 1 : 0);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  SYSUQ_EXPECT(valid_metric_name(name),
               "obs: metric name '" + std::string(name) +
                   "' must be dot-separated snake_case "
                   "(module.subsystem.name)");
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  // Validate the existing entry before inserting anything, so a kind
  // clash never leaves a half-registered instrument behind.
  SYSUQ_EXPECT(it == entries_.end() || it->second.kind == Kind::kCounter,
               "obs: '" + std::string(name) +
                   "' is already registered as a different instrument kind");
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != Kind::kCounter) {
    // Contracts compiled out / mode off: degrade to a process-wide
    // scratch instrument instead of dereferencing the wrong member.
    static Counter scratch;
    return scratch;
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  SYSUQ_EXPECT(valid_metric_name(name),
               "obs: metric name '" + std::string(name) +
                   "' must be dot-separated snake_case "
                   "(module.subsystem.name)");
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  SYSUQ_EXPECT(it == entries_.end() || it->second.kind == Kind::kGauge,
               "obs: '" + std::string(name) +
                   "' is already registered as a different instrument kind");
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != Kind::kGauge) {
    static Gauge scratch;
    return scratch;
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  SYSUQ_EXPECT(valid_metric_name(name),
               "obs: metric name '" + std::string(name) +
                   "' must be dot-separated snake_case "
                   "(module.subsystem.name)");
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  SYSUQ_EXPECT(it == entries_.end() || it->second.kind == Kind::kHistogram,
               "obs: '" + std::string(name) +
                   "' is already registered as a different instrument kind");
  SYSUQ_EXPECT(it == entries_.end() ||
                   it->second.kind != Kind::kHistogram ||
                   it->second.histogram->bounds() == upper_bounds,
               "obs: histogram '" + std::string(name) +
                   "' re-registered with different bucket bounds");
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != Kind::kHistogram) {
    static Histogram scratch({1.0});
    return scratch;
  }
  return *it->second.histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.emplace(name, e.counter->value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace(name, e.gauge->value());
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = e.histogram->bounds();
        h.counts = e.histogram->counts();
        h.count = e.histogram->count();
        h.sum = e.histogram->sum();
        snap.histograms.emplace(name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
    }
  }
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    const std::string pn = prometheus_name(name);
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + pn + " counter\n";
        out += pn + " " + std::to_string(e.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + pn + " gauge\n";
        out += pn + " " + fmt_double(e.gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const auto& h = *e.histogram;
        const auto counts = h.counts();
        out += "# TYPE " + pn + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += counts[i];
          out += pn + "_bucket{le=\"" + fmt_double(h.bounds()[i]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += counts.back();
        out += pn + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
        out += pn + "_sum " + fmt_double(h.sum()) + "\n";
        out += pn + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kCounter) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(e.counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kGauge) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + fmt_double(e.gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kHistogram) continue;
    if (!first) out += ",";
    first = false;
    const auto& h = *e.histogram;
    out += "\"" + name + "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ",";
      out += fmt_double(h.bounds()[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(counts[i]);
    }
    out += "],\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + fmt_double(h.sum()) + "}";
  }
  out += "}}";
  return out;
}

std::vector<double> seconds_buckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

std::vector<double> count_buckets() {
  return {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 10000.0, 100000.0};
}

}  // namespace sysuq::obs

#endif  // !SYSUQ_OBS_OFF
