// delprop_perf: the repository's benchmark.
//
//   delprop_perf --workload serve|live|oneshot --seed N --seconds S
//                --trace 0|1 [--smoke] [--out-dir DIR] [--git DESCRIBE]
//
// Prints the host/build block, human-readable sample counts, and as its last
// stdout line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits nonzero, without a result line, when the run cannot
// complete or a determinism self-check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve|live|oneshot --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--git DESCRIBE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!has_value) {
      return Usage(argv[0]);
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir") {
      config.out_dir = argv[++i];
    } else if (arg == "--git") {
      config.git = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(config.seconds > 0.0) || config.seconds > 600.0) {
    return Usage(argv[0]);
  }

  perfbench::Report report;
  int code = 0;
  if (config.workload == "serve") {
    code = perfbench::RunServe(config, &report);
  } else if (config.workload == "live") {
    code = perfbench::RunLive(config, &report);
  } else if (config.workload == "oneshot") {
    code = perfbench::RunOneshot(config, &report);
  } else {
    return Usage(argv[0]);
  }
  if (code != 0) return code;
  perfbench::EmitHostBlock(config, report);
  perfbench::EmitResultLine(report);
  return 0;
}
