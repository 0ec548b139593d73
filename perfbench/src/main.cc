// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Workloads: uniform-small, city-large, serve-openloop, bike-churn.
// With --trace 0 the workload measures the end-to-end metrics with the
// obs registry off; with --trace 1 it measures the per-layer metrics.
// The last line carries the measured values by name; run.py picks the
// metric set and units from BENCHMARK.json. Lines before it are JSON
// notes (provenance, sample counts, layer boundaries, failures). The
// exit code is 0 only when every answer passed the correctness gate
// and, on a traced run, the exact-counter check.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unistd.h>

#include "mcfs/common/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The numbers are only worth reporting from an optimised build without
// sanitizers (a debug-library capture once passed for a baseline).
std::string BuildProblem() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
#if !defined(__OPTIMIZE__)
  return "not an optimised build (flags: " + flags + ")";
#endif
#if !defined(NDEBUG)
  return "assertions enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
  if (flags.find("-O0") != std::string::npos) return "built with -O0";
  return "";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "uniform-small|city-large|serve-openloop|bike-churn "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!args.count(required)) return Usage("missing a required flag");
  }
  RunOptions run;
  char* end = nullptr;
  run.seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed is not a whole number");
  run.seconds = std::strtod(args["--seconds"].c_str(), &end);
  if (*end != '\0' || !(run.seconds > 0.0)) {
    return Usage("--seconds is not a positive number");
  }
  if (args["--trace"] != "0" && args["--trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  run.trace = args["--trace"] == "1";
  if (args.count("--work-dir")) run.work_dir = args["--work-dir"];

  const std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 problem.c_str());
    return 3;
  }

  const std::string workload = args["--workload"];
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"cxx_flags\": %s, \"compiler\": "
      "%s, \"nproc\": %ld, \"library_threads\": %d}}\n",
      JsonString(workload).c_str(), static_cast<unsigned long long>(run.seed),
      JsonNumber(run.seconds).c_str(), run.trace ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      mcfs::ResolveThreadCount(0));
  std::fflush(stdout);

  Report report;
  if (workload == "uniform-small") {
    report = RunUniformSmall(run);
  } else if (workload == "city-large") {
    report = RunCityLarge(run);
  } else if (workload == "serve-openloop") {
    report = RunServeOpenLoop(run);
  } else if (workload == "bike-churn") {
    report = RunBikeChurn(run);
  } else {
    return Usage("unknown workload");
  }
  for (const std::string& mismatch : report.counter_mismatches) {
    std::fprintf(stderr, "perfbench: exact counter check: %s\n",
                 mismatch.c_str());
  }
  if (run.trace) {
    report.notes["exact_counter_mismatches"] =
        JsonList(report.counter_mismatches);
  }
  report.notes["failed_frac"] = JsonNumber(
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted));
  report.notes["failures"] = JsonList(report.failures);

  std::string notes = "{\"notes\": {";
  bool first = true;
  for (const auto& [key, value] : report.notes) {
    notes += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  std::printf("%s}}\n", notes.c_str());
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("%s\n", MeasuredLine(correct, report.attempted, report.failed,
                                   report.values)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
