// serve-openloop: independent clients against one SolverService with
// verify=true on the bench_serve Aalborg catalog. Requests arrive on a
// seeded Poisson schedule at a fixed rate (an open loop: the schedule
// does not wait for the service), and a low fixed rate of catalog
// capacity deltas goes through ApplyUpdate beside them. The load
// generator is two threads: the submitter (which also applies the
// updates) and a collector that stamps each handle when it completes.
//
// The request mix follows bench_serve's tiered default: blocks of 48
// distinct identities, each block sent twice (half the requests are
// repeats, served by the response cache), and every other identity
// under max_latency_ms (the fast tier, refined in the background). Two
// additions: m varies from 40 to 200, and some full-tier identities ask
// for a facility_subset.

#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "mcfs/common/thread_pool.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/workload.h"

namespace perfbench {
namespace {

using mcfs::McfsInstance;
using mcfs::McfsSolution;
using mcfs::SolveRequest;
using mcfs::SolveResponse;

// Calibrated once on 4 cores (see perfbench/README.md): with this mix
// the full tier's p90 passes the ladder limit between 420 and 560 req/s.
// The nominal rate sits at a third of saturation, not 70%: the shared
// host's speed halves for minutes at a time, and at half of saturation
// such a stretch already drove the queue to seconds of latency.
constexpr double kSaturationRps = 450.0;
constexpr double kNominalRps = 150.0;
// Goodput ladder, as fractions of saturation, and its latency limit on
// the full tier's p90 (the ladder rungs are too short to support a p99).
constexpr double kLadder[] = {0.5, 0.7, 0.85, 1.0, 1.15};
constexpr double kLadderLimitMs = 60.0;
// Each rung runs for this share of --seconds.
constexpr double kRungShare = 0.25;
static_assert(kLadder[std::size(kLadder) - 1] * kSaturationRps * kRungShare <=
                  kNominalRps,
              "a ladder rung must not need more requests than the nominal pass");

// The bench_serve catalog: Aalborg at scale 0.04 from bench_serve's
// default seed, l = min(n / 8, 300) candidates of capacity 10, k = l / 4.
// The catalog is the deployment and stays fixed; --seed drives the
// traffic (requests, arrival times, update targets).
constexpr double kCityScale = 0.04;
constexpr uint64_t kCatalogSeed = 42;
constexpr int kCapacity = 10;

// Request mix. kBlock, the repeat and the fast share are bench_serve's
// (--requests 48 --repeat 2, every other identity fast). The subset
// share is an assumption that no trace backs: every third full-tier
// identity (a sixth of all) asks for half the catalog.
constexpr int kBlock = 48;
constexpr int kSubsetEvery = 6;
constexpr int64_t kFastLatencyMs = 2;  // below any full solve: always fast

// One capacity delta every kUpdatePeriod seconds.
constexpr double kUpdatePeriod = 2.0;

constexpr int kSetupReps = 9;

// The epoch a fresh SolverService publishes its catalog under.
constexpr uint64_t kFirstEpoch = 1;

struct ServeSetup {
  std::unique_ptr<mcfs::Graph> city;
  std::vector<mcfs::NodeId> facilities;
  std::vector<int> capacities;
  int k = 0;
  std::vector<SolveRequest> requests;
  std::vector<int> identity;  // index of the request's first occurrence
  std::vector<mcfs::UpdateOp> updates;
  // Catalog capacities after the first u updates (u = 0, 1, ...), which
  // the service serves as epoch kFirstEpoch + u.
  std::vector<std::vector<int>> capacities_after;
};

std::vector<int> SampleIndices(int n, int count, mcfs::Rng& rng) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < count; ++i) {
    const int j = static_cast<int>(rng.UniformInt(i, n - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

McfsInstance InstanceFor(const ServeSetup& setup, const SolveRequest& request,
                         uint64_t epoch) {
  const std::vector<int>& caps = setup.capacities_after.at(epoch - kFirstEpoch);
  McfsInstance instance;
  instance.graph = setup.city.get();
  instance.customers = request.customers;
  instance.k = request.k;
  if (request.facility_subset.empty()) {
    instance.facility_nodes = setup.facilities;
    instance.capacities = caps;
  } else {
    for (const int idx : request.facility_subset) {
      instance.facility_nodes.push_back(setup.facilities[idx]);
      instance.capacities.push_back(caps[idx]);
    }
  }
  return instance;
}

// Builds the catalog, `num_requests` requests and the update stream.
// Returns the graph and instance set-up times through the pointers.
ServeSetup BuildServeSetup(uint64_t seed, int num_requests, int num_updates,
                           double* graph_s, double* instances_s) {
  ServeSetup setup;
  const double t0 = NowSeconds();
  setup.city = std::make_unique<mcfs::Graph>(
      mcfs::GenerateCity(mcfs::AalborgPreset(kCityScale, kCatalogSeed)));
  const double t1 = NowSeconds();
  const mcfs::Graph& city = *setup.city;
  mcfs::Rng catalog_rng(kCatalogSeed + 1);
  const int l = std::min(city.NumNodes() / 8, 300);
  setup.facilities = mcfs::SampleDistinctNodes(city, l, catalog_rng);
  mcfs::Rng rng(DeriveSeed(seed, 2));
  setup.capacities = mcfs::UniformCapacities(l, kCapacity);
  setup.k = l / 4;

  // Updates come in +1 / -1 pairs on one facility, so the catalog never
  // drifts and every epoch stays feasible.
  setup.capacities_after.push_back(setup.capacities);
  for (int u = 0; u < num_updates; ++u) {
    const int f = static_cast<int>(rng.UniformInt(0, l - 1));
    for (const int delta : {+1, -1}) {
      if (static_cast<int>(setup.updates.size()) == num_updates) break;
      setup.updates.push_back(
          {mcfs::UpdateKind::kCapacityDelta, setup.facilities[f], delta});
      std::vector<int> next = setup.capacities_after.back();
      next[f] += delta;
      setup.capacities_after.push_back(std::move(next));
    }
    if (static_cast<int>(setup.updates.size()) == num_updates) break;
  }

  for (int i = 0; i < num_requests; ++i) {
    const int r = i % (2 * kBlock);  // position in a block and its repeat
    if (r >= kBlock) {
      const int first = i - kBlock;
      setup.requests.push_back(setup.requests[first]);
      setup.identity.push_back(first);
      continue;
    }
    SolveRequest request;
    request.k = setup.k;
    const bool fast = r % 2 == 1;
    const bool subset = r % kSubsetEvery == 0;
    const int m = 40 + 20 * static_cast<int>(rng.UniformInt(0, 8));
    for (int attempt = 0;; ++attempt) {
      request.customers = mcfs::SampleNodesWithReplacement(city, m, rng);
      if (subset) request.facility_subset = SampleIndices(l, l / 2, rng);
      if (mcfs::IsFeasible(InstanceFor(setup, request, kFirstEpoch)) ||
          attempt == 8) {
        break;
      }
    }
    if (fast) {
      request.max_latency_ms = kFastLatencyMs;
      request.tier = "fast";
      request.refine = true;
    }
    setup.requests.push_back(std::move(request));
    setup.identity.push_back(i);
  }
  *graph_s = t1 - t0;
  *instances_s = NowSeconds() - t1;
  return setup;
}

mcfs::ServiceOptions ServiceOptionsForBench() {
  mcfs::ServiceOptions options;  // library defaults otherwise
  options.verify = true;
  return options;
}

// Everything one open-loop pass observed.
struct Pass {
  std::vector<OpenLoopTiming> timings;
  std::vector<std::shared_ptr<mcfs::ResponseHandle>> handles;
  std::vector<double> update_ms;
  int64_t update_failures = 0;
  mcfs::ServiceReport service;
  Counters counters;
  double batch_size_mean = 0.0;
  int64_t epoch_rebuilds = 0;
};

// Runs the schedule at `rate` for `seconds` against a fresh service
// (fresh epochs, cache and queue), then drains it.
Pass RunPass(const ServeSetup& setup, double rate, double seconds,
             uint64_t schedule_seed, bool metrics) {
  Pass pass;
  const std::vector<double> due = PoissonSchedule(rate, seconds, schedule_seed);
  const size_t n = std::min(due.size(), setup.requests.size());
  std::vector<SolveRequest> requests(setup.requests.begin(),
                                     setup.requests.begin() + n);
  pass.timings.resize(n);
  pass.handles.resize(n);

  if (metrics) {
    mcfs::obs::ResetMetrics();
    mcfs::obs::EnableMetrics(true);
  }
  auto service = std::make_unique<mcfs::SolverService>(
      setup.city.get(), setup.facilities, setup.capacities,
      ServiceOptionsForBench());

  std::mutex mutex;
  std::vector<size_t> fresh;  // submitted, not yet handed to the collector
  bool submitted_all = false;
  std::thread collector([&] {
    std::vector<size_t> pending;
    while (true) {
      bool last_round = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        pending.insert(pending.end(), fresh.begin(), fresh.end());
        fresh.clear();
        last_round = submitted_all;
      }
      bool progressed = false;
      for (size_t j = 0; j < pending.size();) {
        const size_t i = pending[j];
        if (pass.handles[i]->Done()) {
          pass.timings[i].done = NowSeconds();
          pending[j] = pending.back();
          pending.pop_back();
          progressed = true;
        } else {
          ++j;
        }
      }
      if (last_round && pending.empty()) break;
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const double start = NowSeconds();
  auto sleep_until = [&](double offset) {
    const double wait = start + offset - NowSeconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  };
  size_t next_update = 0;
  for (size_t i = 0; i < n; ++i) {
    while (next_update < setup.updates.size() &&
           kUpdatePeriod * static_cast<double>(next_update + 1) <= due[i]) {
      sleep_until(kUpdatePeriod * static_cast<double>(next_update + 1));
      mcfs::UpdateRequest update;
      update.ops.push_back(setup.updates[next_update]);
      const double t0 = NowSeconds();
      const auto applied = service->ApplyUpdate(update);
      pass.update_ms.push_back(1e3 * (NowSeconds() - t0));
      ++next_update;
      if (!applied.ok() || applied.value().epoch != kFirstEpoch + next_update) {
        ++pass.update_failures;
      }
    }
    sleep_until(due[i]);
    pass.timings[i].due = start + due[i];
    pass.timings[i].sent = NowSeconds();
    pass.handles[i] = service->Submit(std::move(requests[i]));
    std::lock_guard<std::mutex> lock(mutex);
    fresh.push_back(i);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    submitted_all = true;
  }
  collector.join();
  service->Shutdown();  // also runs every promised refinement
  pass.service = service->Report();
  if (metrics) {
    pass.counters = SnapshotCounters();
    const auto snapshot = mcfs::obs::SnapshotMetrics();
    const auto batch = snapshot.distributions.find("serve/batch_size");
    if (batch != snapshot.distributions.end()) {
      pass.batch_size_mean = batch->second.Mean();
    }
    pass.epoch_rebuilds = CounterValue(pass.counters, "serve/epoch_rebuilds");
    mcfs::obs::EnableMetrics(false);
  }
  service.reset();
  return pass;
}

// Converged references, keyed by (identity, epoch) and shared by every
// pass of a run: the u-th update is the same in every pass, so an epoch
// names the same catalog everywhere.
class References {
 public:
  explicit References(const ServeSetup& setup) : setup_(setup) {}

  // Solves every (identity, epoch) the pass was served under and has no
  // reference yet, in parallel; returns the reference cold-solve times.
  std::vector<double> Fill(const Pass& pass) {
    std::vector<std::pair<int, uint64_t>> missing;
    for (size_t i = 0; i < pass.handles.size(); ++i) {
      const SolveResponse& response = pass.handles[i]->Wait();
      if (!response.status.ok()) continue;
      const std::pair<int, uint64_t> key{setup_.identity[i], response.epoch};
      if (solutions_.count(key) == 0 &&
          std::find(missing.begin(), missing.end(), key) == missing.end()) {
        missing.push_back(key);
      }
    }
    std::vector<std::optional<McfsSolution>> solved(missing.size());
    std::vector<double> seconds(missing.size());
    RunParallel(static_cast<int64_t>(missing.size()),
                mcfs::ResolveThreadCount(0), [&](int64_t j) {
                  const auto& [id, epoch] = missing[j];
                  mcfs::WmaOptions one;
                  one.threads = 1;
                  const double t0 = NowSeconds();
                  auto result = mcfs::SolveWma(
                      InstanceFor(setup_, setup_.requests[id], epoch), one);
                  seconds[j] = NowSeconds() - t0;
                  if (result.ok()) solved[j] = std::move(result).value().solution;
                });
    for (size_t j = 0; j < missing.size(); ++j) {
      solutions_[missing[j]] = std::move(solved[j]);
    }
    return seconds;
  }

  const std::optional<McfsSolution>& Get(int identity, uint64_t epoch) const {
    return solutions_.at({identity, epoch});
  }

 private:
  const ServeSetup& setup_;
  std::map<std::pair<int, uint64_t>, std::optional<McfsSolution>> solutions_;
};

// What the correctness gate found in one pass, plus the user-facing
// numbers that need the references.
struct Gate {
  int64_t failed = 0;
  int64_t unavailable = 0;  // shed or rejected at admission
  // Served distance per served customer: the quality of the answers,
  // independent of how the request sizes happened to mix.
  double objective = 0.0;
  std::vector<double> fast_gap;
  std::vector<double> verify_seconds;
};

// Every full-tier answer (cache hits included) must equal its SolveWma
// reference byte for byte; every fast answer must pass the verifier
// with all customers assigned. Non-OK responses are failures, except
// that a ladder rung driven past saturation (`overload`) may shed: its
// sheds only count against the rung.
Gate CheckPass(const ServeSetup& setup, const Pass& pass,
               const References& references, bool overload, Report* report) {
  Gate gate;
  const size_t n = pass.handles.size();
  std::vector<std::string> problems(n);
  std::vector<double> gap(n, -1.0);
  std::vector<double> verify_seconds(n, -1.0);
  double objective_sum = 0.0, customers = 0.0;
  RunParallel(static_cast<int64_t>(n), mcfs::ResolveThreadCount(0),
              [&](int64_t i) {
    const SolveResponse& response = pass.handles[i]->Wait();
    if (!response.status.ok()) {
      problems[i] = response.status.ToString();
      return;
    }
    const auto& reference = references.Get(setup.identity[i], response.epoch);
    if (!reference.has_value()) {
      problems[i] = "the reference solve failed";
      return;
    }
    if (!response.verify_ran || !response.verify_ok) {
      problems[i] = "the service's verifier did not pass the answer";
      return;
    }
    if (response.tier == "full") {
      if (!SameSolution(response.solution, *reference)) {
        problems[i] = "full-tier answer differs from SolveWma";
      }
    } else if (response.tier == "fast") {
      mcfs::VerifyOptions verify;
      verify.require_all_assigned = true;
      const double t0 = NowSeconds();
      const mcfs::VerifyReport verdict = mcfs::VerifySolution(
          InstanceFor(setup, setup.requests[i], response.epoch),
          response.solution, verify);
      verify_seconds[i] = NowSeconds() - t0;
      if (!verdict.ok) {
        problems[i] = "fast answer rejected: " + verdict.failures.front();
      } else if (reference->objective > 0.0) {
        gap[i] = response.solution.objective / reference->objective;
      }
    } else {
      problems[i] = "unexpected tier " + response.tier;
    }
  });
  for (size_t i = 0; i < n; ++i) {
    const mcfs::Status& status = pass.handles[i]->Wait().status;
    if (overload && status.code() == mcfs::StatusCode::kUnavailable) {
      ++gate.unavailable;
      continue;
    }
    if (!problems[i].empty()) {
      report->Fail("request " + std::to_string(i) + ": " + problems[i]);
      ++gate.failed;
      continue;
    }
    const SolveResponse& response = pass.handles[i]->Wait();
    objective_sum += response.solution.objective;
    customers += static_cast<double>(response.solution.assignment.size());
    if (gap[i] >= 0.0) gate.fast_gap.push_back(gap[i]);
    if (verify_seconds[i] >= 0.0) gate.verify_seconds.push_back(verify_seconds[i]);
  }
  gate.objective = customers > 0 ? objective_sum / customers : 0.0;
  for (int64_t u = 0; u < pass.update_failures; ++u) {
    report->Fail("a capacity update was rejected or skipped an epoch");
  }
  report->attempted += static_cast<int64_t>(n);
  return gate;
}

std::vector<double> TierLatencies(const Pass& pass, const char* tier) {
  std::vector<double> ms;
  for (size_t i = 0; i < pass.handles.size(); ++i) {
    if (pass.handles[i]->Wait().tier == tier) {
      ms.push_back(1e3 * pass.timings[i].Latency());
    }
  }
  return ms;
}

// Highest ladder rate at which the full tier's p90 stays within the
// limit, the backlog does not grow (the last quarter of requests is not
// more than twice as slow as the first), and nothing failed.
bool RungHolds(const Pass& pass, const Gate& gate) {
  if (gate.failed > 0 || gate.unavailable > 0) return false;
  const std::vector<double> full = TierLatencies(pass, "full");
  if (!PercentileSupported(static_cast<int64_t>(full.size()), 0.90) ||
      Percentile(full, 0.90) > kLadderLimitMs) {
    return false;
  }
  const size_t n = pass.timings.size();
  std::vector<double> head, tail;
  for (size_t i = 0; i < n / 4; ++i) {
    head.push_back(pass.timings[i].Latency());
    tail.push_back(pass.timings[n - 1 - i].Latency());
  }
  return Median(tail) <= 2.0 * Median(head) + 0.005;
}

int MaxUpdates(double seconds) {
  return static_cast<int>(seconds / kUpdatePeriod) + 1;
}

}  // namespace

Report RunServeOpenLoop(const RunOptions& run) {
  Report report;
  // The nominal pass is the longest; the ladder's rungs replay prefixes
  // of the same request list.
  const auto num_requests =
      static_cast<int>(PoissonSchedule(kNominalRps, run.seconds, 0).size());

  std::vector<double> total, graph, instances, service;
  ServeSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double graph_s = 0.0, instances_s = 0.0;
    const double t0 = NowSeconds();
    setup = BuildServeSetup(run.seed, num_requests, MaxUpdates(run.seconds),
                            &graph_s, &instances_s);
    const double t1 = NowSeconds();
    {
      mcfs::SolverService warm(setup.city.get(), setup.facilities,
                               setup.capacities, ServiceOptionsForBench());
    }
    const double t2 = NowSeconds();
    total.push_back(t2 - t0);
    graph.push_back(graph_s);
    instances.push_back(instances_s);
    service.push_back(t2 - t1);
  }
  References references(setup);
  const uint64_t schedule_seed = DeriveSeed(run.seed, 3);

  // The untraced pass at the nominal rate: the end-to-end numbers.
  const Pass nominal_pass =
      RunPass(setup, kNominalRps, run.seconds, schedule_seed, false);
  report.values["peak_rss_mb"] = PeakRssMb();
  std::vector<double> cold_ref = references.Fill(nominal_pass);
  const Gate gate =
      CheckPass(setup, nominal_pass, references, false, &report);
  const OpenLoopSummary summary = SummarizeOpenLoop(nominal_pass.timings);
  auto& v = report.values;
  if (!run.trace) {
    v["setup_s"] = Median(total);
    // Latency of the requests the service solved: full tier, not served
    // from the cache. Cache hits (about 0.25 ms) and fast answers (about
    // 1 ms) are the other two classes, and their shares move with the
    // host's speed: a repeat hits the cache only if the background
    // refinement of its first send has finished. A p50 over all three
    // sat on the boundary between the two fast classes: the cache hit
    // share ranged from 0.29 to 0.42 between runs, and that p50 from
    // 0.92 to 1.63 ms.
    std::vector<double> solved_ms;
    for (size_t i = 0; i < nominal_pass.handles.size(); ++i) {
      const SolveResponse& response = nominal_pass.handles[i]->Wait();
      if (response.tier == "full" && !response.cache_hit) {
        solved_ms.push_back(summary.latency_ms[i]);
      }
    }
    AddLatencyMetrics(solved_ms, &report);
    report.notes["all_requests_p50_ms"] =
        JsonNumber(Percentile(summary.latency_ms, 0.50));
    // Requests per second of busy time: over the whole pass the rate
    // would be the schedule's, whatever the service does, so the time
    // with nothing due and in flight is left out.
    v["ops_per_s"] = static_cast<double>(nominal_pass.timings.size()) /
                     summary.busy_seconds;
    report.notes["busy_frac"] = JsonNumber(summary.busy_seconds / run.seconds);
    v["objective"] = gate.objective;
    report.notes["rate_rps"] = JsonNumber(kNominalRps);
    report.notes["requests"] = std::to_string(nominal_pass.timings.size());
    report.notes["loadgen_lag_p99_ms"] = JsonNumber(summary.lag_p99_ms);
    report.notes["loadgen_backlog_max"] = std::to_string(summary.backlog_max);
    return report;
  }

  // Traced run. User-facing tail numbers come from the untraced pass.
  v["setup.graph_s"] = Median(graph);
  v["setup.instances_s"] = Median(instances);
  v["setup.service_s"] = Median(service);
  const std::vector<double> full_ms = TierLatencies(nominal_pass, "full");
  const std::vector<double> fast_ms = TierLatencies(nominal_pass, "fast");
  v["serve.latency_p99_ms"] = Percentile(full_ms, 0.99);
  v["serve.fast_p90_ms"] = Percentile(fast_ms, 0.90);
  v["serve.fast_gap"] = Mean(gate.fast_gap);
  v["loadgen.lag_p99_ms"] = summary.lag_p99_ms;
  v["loadgen.backlog_max"] = static_cast<double>(summary.backlog_max);
  report.notes["full_tier_samples"] = std::to_string(full_ms.size());
  report.notes["full_tier_p99_supported"] =
      PercentileSupported(static_cast<int64_t>(full_ms.size()), 0.99) ? "true"
                                                                      : "false";
  report.notes["fast_tier_samples"] = std::to_string(fast_ms.size());

  // The traced pass: same schedule, registry on, spans per request.
  const Pass traced = RunPass(setup, kNominalRps, run.seconds, schedule_seed, true);
  const std::vector<double> more_ref = references.Fill(traced);
  cold_ref.insert(cold_ref.end(), more_ref.begin(), more_ref.end());
  const Gate traced_gate = CheckPass(setup, traced, references, false, &report);
  SpanLog log;
  std::vector<double> queue_ms, preprocess_ms, solve_ms, other_ms;
  mcfs::WmaStats phases;
  int64_t solves = 0, cache_hits = 0, fast = 0;
  for (size_t i = 0; i < traced.handles.size(); ++i) {
    const OpenLoopTiming& t = traced.timings[i];
    const SolveResponse& r = traced.handles[i]->Wait();
    const auto op = static_cast<int64_t>(i);
    const int root = log.Add("request", -1, op, t.due, t.done);
    log.Add("loadgen.lag", root, op, t.due, t.sent);
    log.AddPhases(root, t.sent,
                  {{"serve.queue", r.queue_seconds},
                   {"serve.preprocess", r.preprocess_seconds},
                   {"serve.solve", r.solve_seconds}});
    queue_ms.push_back(1e3 * r.queue_seconds);
    preprocess_ms.push_back(1e3 * r.preprocess_seconds);
    solve_ms.push_back(1e3 * r.solve_seconds);
    other_ms.push_back(1e3 * (t.Latency() - std::max(0.0, t.Lag()) -
                              r.queue_seconds - r.preprocess_seconds -
                              r.solve_seconds));
    cache_hits += r.cache_hit ? 1 : 0;
    fast += r.tier == "fast" ? 1 : 0;
    if (r.tier == "full" && !r.cache_hit) {
      ++solves;
      phases.matching_seconds += r.stats.matching_seconds;
      phases.prefetch_seconds += r.stats.prefetch_seconds;
      phases.cover_seconds += r.stats.cover_seconds;
      phases.final_assign_seconds += r.stats.final_assign_seconds;
      phases.total_seconds += r.stats.total_seconds;
    }
  }
  const std::vector<Span> spans = log.spans();
  const double requests = static_cast<double>(traced.handles.size());
  const double per_solve = 1.0 / static_cast<double>(std::max<int64_t>(1, solves));
  v["wma.matching_self_s"] =
      (phases.matching_seconds - phases.prefetch_seconds) * per_solve;
  v["wma.prefetch_s"] = phases.prefetch_seconds * per_solve;
  v["wma.cover_s"] = phases.cover_seconds * per_solve;
  v["wma.final_assign_s"] = phases.final_assign_seconds * per_solve;
  v["wma.wrapup_s"] = (phases.total_seconds - phases.matching_seconds -
                       phases.cover_seconds - phases.final_assign_seconds) *
                      per_solve;
  v["serve.queue_ms.p50"] = Percentile(queue_ms, 0.50);
  v["serve.queue_ms.p99"] = Percentile(queue_ms, 0.99);
  v["serve.preprocess_ms.p50"] = Percentile(preprocess_ms, 0.50);
  v["serve.solve_ms.p50"] = Percentile(solve_ms, 0.50);
  v["serve.solve_ms.p99"] = Percentile(solve_ms, 0.99);
  v["serve.other_ms.p99"] = Percentile(other_ms, 0.99);
  v["serve.cache_hit_ratio"] = static_cast<double>(cache_hits) / requests;
  v["serve.batch_size_mean"] = traced.batch_size_mean;
  v["serve.shed"] = static_cast<double>(traced.service.requests_shed +
                                        traced.service.requests_rejected);
  v["serve.epoch_rebuilds"] = static_cast<double>(traced.epoch_rebuilds);
  v["serve.update_ms.p50"] = Percentile(traced.update_ms, 0.50);
  v["serve.fast_share"] = static_cast<double>(fast) / requests;
  v["serve.fast_fallthroughs"] =
      static_cast<double>(traced.service.fast_fallthroughs);
  v["serve.refine_runs"] = static_cast<double>(traced.service.refine_runs);
  v["resolve.cold_ref_ms.p50"] = 1e3 * Percentile(cold_ref, 0.50);
  v["verify.s"] = Mean(traced_gate.verify_seconds);
  v["verify.dijkstra_runs"] = static_cast<double>(
      CounterValue(traced.counters, "verify/dijkstra_runs"));
  v["verify.customers_checked"] = static_cast<double>(
      CounterValue(traced.counters, "verify/customers_checked"));
  AddCounterMetrics(traced.counters, &report);
  const std::map<std::string, double> self = SelfTimeByName(spans);
  const double traced_total = RootSeconds(spans);
  v["unattributed_frac"] = self.at("request") / traced_total;
  v["trace.overhead_frac"] =
      Mean(SummarizeOpenLoop(traced.timings).latency_ms) /
          Mean(summary.latency_ms) -
      1.0;

  // Goodput ladder, untraced.
  double goodput = 0.0;
  std::string ladder = "[";
  for (const double fraction : kLadder) {
    const double rate = fraction * kSaturationRps;
    const Pass rung =
        RunPass(setup, rate, run.seconds * kRungShare, schedule_seed, false);
    references.Fill(rung);
    const bool holds =
        RungHolds(rung, CheckPass(setup, rung, references, true, &report));
    if (holds) goodput = std::max(goodput, rate);
    const std::vector<double> full = TierLatencies(rung, "full");
    ladder += std::string(ladder.size() > 1 ? ", " : "") + "{\"rate\": " +
              JsonNumber(rate) + ", \"full_p90_ms\": " +
              JsonNumber(Percentile(full, 0.90)) +
              ", \"holds\": " + (holds ? "true" : "false") + "}";
  }
  v["serve.goodput_rps"] = goodput;
  report.notes["ladder"] = ladder + "]";
  report.notes["ladder_limit_ms"] = JsonNumber(kLadderLimitMs);
  report.notes["rate_rps"] = JsonNumber(kNominalRps);
  report.notes["layer_boundaries"] = JsonList(
      {"request = due time -> handle complete", "loadgen lag (due -> Submit)",
       "SolveResponse.queue_seconds", "SolveResponse.preprocess_seconds",
       "SolveResponse.solve_seconds",
       "unattributed = verifier, cache, completion, collector polling"});
  return report;
}

}  // namespace perfbench
