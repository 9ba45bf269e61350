// perfbench_driver: runs one benchmark workload and writes its full report.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --report PATH --work-dir DIR [--trace-out PATH]
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's one-line result. Exit codes: 0 ran (the report says whether
// the outputs were correct), 2 usage error or refused environment, 1 the
// workload threw.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --report PATH --work-dir DIR [--trace-out PATH]\n"
            << "workloads:";
  for (const std::string& n : perfbench::workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string report_path;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--report") {
        report_path = v;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--trace-out") {
        opt.trace_path = v;
      } else {
        return usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a + ": " + v);
    }
  }
  if (opt.workload.empty() || report_path.empty() || opt.work_dir.empty() ||
      !have_trace || !(opt.seconds > 0.0)) {
    return usage("--workload, --seconds > 0, --trace, --report and --work-dir "
                 "are required");
  }
  if (opt.trace && opt.trace_path.empty()) {
    return usage("--trace 1 needs --trace-out");
  }
  // Debugging knobs change what the library does (race shadow state, fault
  // injection) or add tracing to every build; their numbers are not the
  // benchmark's. Tracing is the traced run's own business.
  for (const char* knob : {"WKNNG_CHECK_RACES", "WKNNG_INJECT_FAULTS",
                           "WKNNG_TRACE", "WKNNG_TRACE_WARPS"}) {
    if (env_set(knob)) {
      std::cerr << "perfbench_driver: refusing to run with " << knob
                << " set; unset it\n";
      return 2;
    }
  }

#if defined(__GLIBC__)
  // Pin glibc's mmap threshold. By default it rises to the largest block
  // freed so far (up to 32 MiB); the snapshot copies that every serve-churn
  // publication frees then pile up in the heaps of whichever threads freed
  // them, and peak RSS lands anywhere from 0.4 to 2.8 GB from one run to the
  // next. Pinned, blocks of 1 MiB or more go back to the system when freed,
  // so peak RSS follows the memory the program holds.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif

  perfbench::Report report;
  try {
    std::filesystem::create_directories(opt.work_dir);
    perfbench::run_workload(opt, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::ofstream out(report_path);
  out << report.to_json() << "\n";
  out.close();
  if (!out) {
    std::cerr << "perfbench_driver: cannot write " << report_path << "\n";
    return 1;
  }
  return 0;
}
