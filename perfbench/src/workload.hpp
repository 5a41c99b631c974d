// The benchmark's workload interface and layer probes.
//
// A workload owns its seeded inputs and one InferenceEngine. An op is one
// call into the engine's public API; the runner drives ops in a closed
// loop from one client thread. Generators live here, in the benchmark:
// the engine only ever sees the networks and evidence they produce.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bayesnet/engine.hpp"

namespace perfbench {

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Sets `name` in `out`, replacing an earlier value of the same name.
void put(Metrics& out, const std::string& name, double value,
         const std::string& unit);
/// Sets `name` to the larger of `value` and its earlier value.
void put_max(Metrics& out, const std::string& name, double value,
             const std::string& unit);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the network, constructs the engine and warms its caches.
  virtual void setup() = 0;
  /// Draws op `i`'s inputs; not part of the op's latency.
  virtual void prepare(std::size_t i) = 0;
  /// The op: exactly one call into the engine's public API.
  virtual void run() = 0;
  /// Cheap shape check of the op's answer; keeps a sample of ops for
  /// verify(). False marks the op failed.
  virtual bool accept(std::size_t i) = 0;
  /// Checks the kept ops against reference backends, outside the timed
  /// region. Returns how many failed and appends a reason per failure.
  virtual std::size_t verify(std::vector<std::string>& why) = 0;
  /// Number of ops verify() checked.
  [[nodiscard]] virtual std::size_t verified() const = 0;
  [[nodiscard]] virtual const sysuq::bayesnet::InferenceEngine& engine() const = 0;
};

struct WorkloadSpec {
  const char* name;
  /// peak_rss_mb is read when this many timed ops have completed, so a
  /// faster build does not report more memory merely for caching more
  /// entries in the same number of seconds.
  std::size_t rss_ops;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
  /// Span name of the op's engine call.
  const char* call_span;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();

std::unique_ptr<Workload> make_relay_chain_ve(std::uint64_t seed);
std::unique_ptr<Workload> make_fta_diagnosis_jt(std::uint64_t seed);
std::unique_ptr<Workload> make_bounded_bp_fanin(std::uint64_t seed);

// Layer probes for the traced run: each replays seeded inputs (a
// workload's, or for probe_bp the two BP shapes of bounded_bp.cpp) through
// the public entry points of the layers they exercise, under spans, and
// appends the per-layer metrics it measures.
void probe_relay(std::uint64_t seed, Metrics& out);
void probe_fta(std::uint64_t seed, Metrics& out);
void probe_bp(std::uint64_t seed, Metrics& out);

/// Milliseconds since `t0` on the steady clock.
using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace perfbench
