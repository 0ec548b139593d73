#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "mcfs/obs/metrics.h"

namespace perfbench {

void Report::Fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 8) failures.push_back(reason);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finaliser over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunParallel(int64_t n, int threads,
                 const std::function<void(int64_t)>& fn) {
  std::atomic<int64_t> next{0};
  const int count = static_cast<int>(std::clamp<int64_t>(threads, 1, n));
  std::vector<std::thread> workers;
  for (int t = 0; t < count; ++t) {
    workers.emplace_back([&] {
      for (int64_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

bool SameSolution(const mcfs::McfsSolution& a, const mcfs::McfsSolution& b) {
  // Distances and objective compare as doubles with ==: the contract is
  // bit identity, and these values are never NaN.
  return a.selected == b.selected && a.assignment == b.assignment &&
         a.distances == b.distances && a.objective == b.objective &&
         a.feasible == b.feasible && a.termination == b.termination;
}

const std::vector<std::string>& ExactCounterNames() {
  static const std::vector<std::string> names = {
      "stream/edges_relaxed", "matcher/edges_materialized",
      "matcher/searches", "cover/candidates_scanned", "wma/iterations"};
  return names;
}

Counters SnapshotCounters() {
  const mcfs::obs::MetricsSnapshot snapshot = mcfs::obs::SnapshotMetrics();
  Counters counters = snapshot.counters;
  // Timed scopes observe into distributions; their counts are calls.
  for (const auto& [name, dist] : snapshot.distributions) {
    counters[name + "#count"] = dist.count;
  }
  return counters;
}

int64_t CounterValue(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void CheckExactCounters(const Counters& reference, const Counters& run,
                        const std::string& what, Report* report) {
  for (const std::string& name : ExactCounterNames()) {
    const int64_t want = CounterValue(reference, name);
    const int64_t got = CounterValue(run, name);
    if (want != got) {
      const std::string mismatch = name + " differs (" + what + "): " +
                                   std::to_string(want) + " vs " +
                                   std::to_string(got);
      report->counter_mismatches.push_back(mismatch);
      report->Fail("exact counter check: " + mismatch);
    }
  }
}

namespace {

double Ratio(int64_t numerator, int64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

}  // namespace

void AddCounterMetrics(const Counters& c, Report* report) {
  auto& v = report->values;
  auto get = [&](const char* name) { return CounterValue(c, name); };
  const auto as_double = [](int64_t x) { return static_cast<double>(x); };
  v["wma.iterations"] = as_double(get("wma/iterations"));
  v["wma.warm_stream_entries"] = as_double(get("wma/warm_stream_entries"));
  v["stream.nodes_settled"] = as_double(get("stream/nodes_settled"));
  v["stream.edges_relaxed"] = as_double(get("stream/edges_relaxed"));
  v["stream.candidates_popped"] = as_double(get("stream/candidates_popped"));
  const int64_t hits = get("exec/stream/prefetch_hits");
  v["stream.prefetch_hit_ratio"] =
      Ratio(hits, hits + get("exec/stream/prefetch_misses"));
  v["matcher.searches"] = as_double(get("matcher/searches"));
  v["matcher.gb_nodes_settled"] = as_double(get("matcher/gb_nodes_settled"));
  v["matcher.gb_edges_relaxed"] = as_double(get("matcher/gb_edges_relaxed"));
  v["matcher.edges_materialized"] =
      as_double(get("matcher/edges_materialized"));
  v["matcher.theorem1_prunes"] = as_double(get("matcher/theorem1_prunes"));
  v["matcher.rewirings"] = as_double(get("matcher/rewirings"));
  v["matcher.label_correcting_searches"] =
      as_double(get("matcher/label_correcting_searches"));
  v["matcher.augment_ratio"] =
      Ratio(get("matcher/augmentations"), get("matcher/searches"));
  v["cover.check_cover"] = as_double(get("wma/cover_seconds#count"));
  v["cover.candidates_scanned"] = as_double(get("cover/candidates_scanned"));
  v["cover.stale_reinserts"] = as_double(get("cover/stale_reinserts"));
  v["cover.select_ratio"] =
      Ratio(get("cover/selections"), get("cover/candidates_scanned"));
  v["pool.parallel_fors"] = as_double(get("exec/pool/parallel_fors"));
  v["pool.inline_sections"] = as_double(get("exec/pool/inline_sections"));
  v["pool.indices_per_fork"] =
      Ratio(get("exec/pool/indices"), get("exec/pool/parallel_fors"));
}

void AddLatencyMetrics(const std::vector<double>& latency_ms, Report* report) {
  const auto n = static_cast<int64_t>(latency_ms.size());
  report->values["latency_p50_ms"] = Percentile(latency_ms, 0.50);
  report->values["latency_p90_ms"] = Percentile(latency_ms, 0.90);
  report->notes["latency_samples"] = std::to_string(n);
  report->notes["latency_p90_samples_beyond"] =
      std::to_string(SamplesBeyond(n, 0.90));
  report->notes["latency_p90_supported"] =
      PercentileSupported(n, 0.90) ? "true" : "false";
}

void AddWmaPhases(int run_wma_span, const mcfs::WmaStats& stats,
                  SpanLog* log) {
  const double phases = stats.matching_seconds + stats.cover_seconds +
                        stats.final_assign_seconds;
  const double start = log->span(run_wma_span).start;
  log->AddPhases(
      run_wma_span, start,
      {{"wma.matching_self", stats.matching_seconds - stats.prefetch_seconds},
       {"wma.prefetch", stats.prefetch_seconds},
       {"wma.cover", stats.cover_seconds},
       {"wma.final_assign", stats.final_assign_seconds},
       {"wma.wrapup", std::max(0.0, stats.total_seconds - phases)}});
}

double RootSeconds(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.parent < 0) total += span.Duration();
  }
  return total;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items[i]);
  }
  return out + "]";
}

}  // namespace perfbench
