// Host-speed reference: a fixed piece of work owned by the benchmark.
//
// The benchmark's host is a shared VM whose vCPUs run up to ~2x slower for
// seconds at a time while a neighbour loads the sibling hyperthread; CPU
// time slows with wall time, so neither clock alone repeats from run to
// run. The runner times this reference on the client thread right before
// and right after every op and reports each op's latency scaled to the
// reference's nominal speed (stats.hpp normalized_ms). The reference never
// calls into sysuq, so a change to the engine moves the op and not the
// reference.
#pragma once

namespace perfbench {

/// The reference's wall time on an uncontended vCPU of the 4-vCPU VM the
/// benchmark was calibrated on (gcc 12, RelWithDebInfo). Times scaled to
/// it read close to wall times on that VM when it is quiet.
inline constexpr double kReferenceNominalNs = 75'000.0;

/// Runs the reference once and returns its wall time in nanoseconds.
[[nodiscard]] double reference_ns();

}  // namespace perfbench
