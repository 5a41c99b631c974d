// Order statistics and span accounting for the engine benchmark.
//
// Kept free of any sysuq dependency so the helpers can be tested alone
// (tests/test_stats.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) of `sorted` (ascending), linearly
/// interpolated between the two closest ranks. 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Number of samples strictly above the p-th percentile's rank in a sample
/// of `n`: floor(n * (100 - p) / 100).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The tail percentile to report for a sample of `n`: `preferred` when at
/// least `min_beyond` samples lie beyond it, else the highest of
/// 99.9, 99, 95, 90, 75, 50 that has them, else 50.
[[nodiscard]] double tail_level(std::size_t n, double preferred,
                                std::size_t min_beyond = 10);

/// The median of an unsorted sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);

/// Scales wall times to a reference's nominal speed. Sample i took
/// `wall[i]` while the reference work, timed right before and right after
/// it, took `ref_ns[i]` and `ref_ns[i + 1]` nanoseconds, so `ref_ns` holds
/// one entry more than `wall`. Returns wall[i] * nominal_ns divided by the
/// mean of those two reference times: what sample i would have taken had
/// the host run the reference at its nominal speed.
[[nodiscard]] std::vector<double> normalized(const std::vector<double>& wall,
                                             const std::vector<double>& ref_ns,
                                             double nominal_ns);

/// One closed interval of a span, as recorded by the tracer.
struct SpanRecord {
  std::string name;        ///< "<layer>.<call>", e.g. "kernels.reduce"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t op = 0;      ///< the op the span belongs to
};

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval covered by its child spans (overlapping children are
/// counted once), summed over the spans of each layer.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
