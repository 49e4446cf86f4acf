// rrperf: the outside-in benchmark driver.
//
//   rrperf --workload <front-4k|bulk-64m|fanout-8x1m> --seed N --seconds S
//          --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics in a separate run. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for every workload and metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rrperf --workload <front-4k|bulk-64m|fanout-8x1m> "
               "--seed N --seconds S --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rrperf::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  if (args.workload == "front-4k") return rrperf::RunFront(args);
  if (args.workload == "bulk-64m") return rrperf::RunBulk(args);
  if (args.workload == "fanout-8x1m") return rrperf::RunFanout(args);
  return Usage();
}
