#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
  std::string commit;   ///< recorded in the ENV line
  std::string digest;   ///< recorded in the ENV line
};

/// Runs one workload and prints its report; the last stdout line is the
/// result JSON. Returns the process exit code.
int run_benchmark(const RunConfig& cfg);

}  // namespace perfbench
