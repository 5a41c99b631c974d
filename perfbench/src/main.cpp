// perfbench: the engine benchmark's binary. See ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <sha>] [--digest <hash>]
#include <cstdio>
#include <exception>
#include <string>

#include "runner.hpp"
#include "workload.hpp"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--commit <sha>] [--digest <hash>]\n"
                 "workloads:");
    for (const auto& s : perfbench::workload_specs()) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") cfg.workload = value;
      else if (arg == "--seed") cfg.seed = std::stoull(value);
      else if (arg == "--seconds") cfg.seconds = std::stod(value);
      else if (arg == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (arg == "--out-dir") cfg.out_dir = value;
      else if (arg == "--commit") cfg.commit = value;
      else if (arg == "--digest") cfg.digest = value;
      else return usage();
    }
    if (cfg.workload.empty() || !(cfg.seconds > 0.0)) return usage();
    return perfbench::run_benchmark(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
