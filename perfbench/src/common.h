// Pieces shared by the four workloads: run options, the report a
// workload hands back to main, counter snapshots, and small utilities.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "helpers.h"
#include "mcfs/core/instance.h"
#include "mcfs/core/wma.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the files a run writes (bike-churn's checkpoints).
  std::string work_dir = ".";
};

// What one workload run hands back: operation counts, named metric
// values (end-to-end ones untraced, per-layer ones traced), and notes
// printed as JSON lines ahead of the result line.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  // Exact-counter differences; each also counts as a failed check.
  std::vector<std::string> counter_mismatches;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  // key -> JSON value

  // Counts one failed operation (or failed check) with its reason.
  void Fail(const std::string& reason);
};

// Independent seed for one input of the run, derived from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Peak resident set size of this process so far, in MB. Workloads read
// it right after the measured window, before the correctness gate's
// reference solves add their own memory.
double PeakRssMb();

// Runs fn(i) for i in [0, n) on up to `threads` std::threads. Used only
// for correctness references outside the measured window.
void RunParallel(int64_t n, int threads,
                 const std::function<void(int64_t)>& fn);

// Selection, assignment, distances, objective and status, bit for bit.
bool SameSolution(const mcfs::McfsSolution& a, const mcfs::McfsSolution& b);

// The logical work counters that must repeat exactly between traced
// runs and between one thread and nproc.
const std::vector<std::string>& ExactCounterNames();

// Counter values of the obs registry, by registry name, plus the call
// count of every distribution as "<name>#count".
using Counters = std::map<std::string, int64_t>;
Counters SnapshotCounters();
int64_t CounterValue(const Counters& counters, const std::string& name);

// Compares the exact counters of `run` against `reference` and fails
// the run on each difference, naming `what`.
void CheckExactCounters(const Counters& reference, const Counters& run,
                        const std::string& what, Report* report);

// Per-layer metrics derived from registry counters, shared by every
// workload: stream.*, matcher.*, cover.*, pool.*, wma.iterations,
// wma.warm_stream_entries.
void AddCounterMetrics(const Counters& counters, Report* report);

// Nearest-rank latency metrics plus the count behind each percentile.
void AddLatencyMetrics(const std::vector<double>& latency_ms, Report* report);

// Lays the WmaStats phases of one RunWma call under its span:
// matching minus prefetch, prefetch, cover, final assignment, and the
// wrap-up (total minus those phases).
void AddWmaPhases(int run_wma_span, const mcfs::WmaStats& stats,
                  SpanLog* log);

// Total duration of the root spans (the operations) in `spans`.
double RootSeconds(const std::vector<Span>& spans);

// JSON array of strings.
std::string JsonList(const std::vector<std::string>& items);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
