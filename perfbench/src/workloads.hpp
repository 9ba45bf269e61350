#pragma once
// The benchmark's workloads. Each one generates its inputs from the seed,
// drives the library only through its public calls, checks the outputs and
// records every metric into a Report. See perfbench/README.md for why each
// workload exists and which layer metric should move which end-to-end one.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch for the dynamic index's files
  std::string trace_path;  ///< Perfetto JSON output of a traced run
};

std::vector<std::string> workload_names();

/// Runs `options.workload` and fills `report`. Throws on an unknown name.
void run_workload(const RunOptions& options, Report& report);

}  // namespace perfbench
