// Measurement helpers of the end-to-end benchmark: percentiles, the
// seeded open-loop arrival schedule, spans with self-time subtraction,
// and the measured-values line. Kept free of workload code so that
// tests/helpers_test.cc can check them in isolation.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

// Fewest samples that must lie beyond a reported percentile.
inline constexpr int64_t kMinSamplesBeyond = 10;

// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
// ceil(q * n), at least 1.
int64_t NearestRank(int64_t n, double q);

// Samples strictly above the nearest-rank position: n - NearestRank(n, q).
int64_t SamplesBeyond(int64_t n, double q);

// The nearest-rank q-quantile of `samples` (0 for an empty input).
double Percentile(std::vector<double> samples, double q);

// True when at least kMinSamplesBeyond samples lie beyond the q-quantile.
bool PercentileSupported(int64_t n, double q);

// Median (mean of the two middle values for an even count; 0 if empty).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// --- open-loop schedule ----------------------------------------------------

// Due times, in seconds from the start of the run, of a Poisson arrival
// process with `rate` arrivals per second over [0, duration), conditioned
// on its expected count: exactly round(rate * duration) arrivals, spaced
// by normalised exponential gaps (the order statistics of uniform
// times). Fixing the count keeps the offered work the same for every
// seed; the burstiness is still Poisson. The same (rate, duration, seed)
// always gives the same schedule.
std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed);

// One open-loop request, in seconds from the start of the run: when it
// was due, when the generator actually submitted it, and when its
// handle was seen complete.
struct OpenLoopTiming {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;

  // Latency counts from the due time, so a stalled generator charges
  // its stall to every request it delayed.
  double Latency() const { return done - due; }
  double Lag() const { return sent - due; }
};

struct OpenLoopSummary {
  std::vector<double> latency_ms;  // per request, from the due time
  double lag_p99_ms = 0.0;         // how late the generator ran
  // Most requests submitted but not yet complete at any one time.
  int64_t backlog_max = 0;
  // Time during which at least one request was due and not yet
  // complete: the schedule's idle gaps excluded.
  double busy_seconds = 0.0;
};

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopTiming>& timings);

// --- spans -----------------------------------------------------------------

// Seconds on a steady clock, from an arbitrary process-wide origin.
double NowSeconds();

// One timed interval around a call into a layer. `parent` is the index
// of the enclosing span (-1 for an operation's root) and `op` the
// operation it belongs to.
struct Span {
  std::string name;
  int parent = -1;
  int64_t op = -1;
  double start = 0.0;
  double end = 0.0;

  double Duration() const { return end - start; }
};

// In-memory span store. Spans are appended under a mutex, so the
// open-loop submitter and collector may record into one log.
class SpanLog {
 public:
  // Opens a span now and returns its index.
  int Begin(const std::string& name, int parent, int64_t op);
  void End(int index);
  // Records an already measured interval.
  int Add(const std::string& name, int parent, int64_t op, double start,
          double end);
  // Records phases whose durations are known but whose positions are not
  // (WmaStats interleaves them across iterations): they are laid end to
  // end from `start`, clipped to the parent's end. Only their lengths
  // carry meaning. Returns the index of the first phase.
  int AddPhases(int parent, double start,
                const std::vector<std::pair<std::string, double>>& phases);

  Span span(int index) const;
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// that its children cover (children are clipped to the parent; an
// overlap between children is counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Sum of self times by span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

// --- result line -----------------------------------------------------------

// Renders a double with every significant digit (non-finite -> null).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

// The last line of the binary's standard output:
// {"correct": .., "attempted": .., "failed": .., "values": {name: value}}.
// run.py turns it into the result object, taking the metric set and
// units from BENCHMARK.json.
std::string MeasuredLine(bool correct, int64_t attempted, int64_t failed,
                         const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
