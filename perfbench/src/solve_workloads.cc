// The two closed-loop solve workloads: one caller runs SolveWma over a
// fixed, seeded set of instances, cycling until the run time is up.
//
//   uniform-small  Fig. 6 (a)-(d) at n = 256..2048: small solves where
//                  per-solve fixed costs (validation, matcher and cover
//                  set-up) dominate; the traced run adds the nproc
//                  fork/join and prefetch costs.
//   city-large     Table IV presets (organic Copenhagen, grid Las Vegas)
//                  with m = 512, k = 51, c = 20, F_p = V: long road
//                  searches, G_b search and SET-COVER dominate.

#include "workloads.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "mcfs/common/thread_pool.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/generators.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/workload/workload.h"

namespace perfbench {
namespace {

using mcfs::McfsInstance;
using mcfs::McfsSolution;

// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 15;
// Untimed solves before the measured window.
constexpr double kWarmupSeconds = 1.0;

// The networks are fixed, as the paper's are: Fig. 6's synthetic graphs
// as bench_fig6_uniform builds them at its default seed, and the Table IV
// city presets at their default seeds. --seed draws the instances on
// them (customers, candidate order, random capacities).
constexpr uint64_t kFig6Seed = 42;

// uniform-small: instances drawn per Fig. 6 graph; the run cycles
// through all of them. The solve times form one cluster per graph and
// configuration; with eight instances per graph p90 falls inside the
// second-slowest cluster, not at its edge, and does not jump with the
// seed's draw.
constexpr int kUniformSamples = 8;

// city-large: the Table IV instance shape, with each city at the scale
// where one solve takes about 50 ms on one thread. At one shared scale
// the grid city's solves took twice the organic city's, so the two
// groups did not overlap and p50 fell in the gap between them.
constexpr double kCopenhagenScale = 0.008;
constexpr double kLasVegasScale = 0.006;
constexpr int kCityCustomers = 512;
constexpr int kCityBudget = 51;
constexpr int kCityCapacity = 20;
// Customer samples per city; the run cycles through them. About one
// organic-city sample in six takes two to ten times a typical solve.
// With equal shares these made about 8.5% of all solves, so p90 sat on
// the edge of that slow group and jumped with the seed's draw (60 ms
// for one seed, 130 ms for another). Drawing the grid city twice as
// often puts the slow group near 6% of all solves, and p90 falls among
// the typical solves of both cities.
constexpr int kCopenhagenSamples = 64;
constexpr int kLasVegasSamples = 128;

struct SolveSetup {
  std::vector<std::unique_ptr<mcfs::Graph>> graphs;
  std::vector<McfsInstance> cases;
  double graph_s = 0.0;
  double instances_s = 0.0;
};

using SetupFn = SolveSetup (*)(uint64_t seed);

// The solver runs its timed operations at one thread. At nproc each
// solve forks up to hundreds of small prefetch sections, and on a shared
// 4-vCPU host a descheduled vCPU stalls them: run-to-run spread of the
// end-to-end latencies reached 20-45% at nproc, against about 6% at one
// thread. The traced run decomposes the nproc solve and reports the
// thread speedup; the gate checks that both thread counts agree.
constexpr int kTimedThreads = 1;

// Redraws an instance until it is feasible, as the paper's sweeps do.
template <typename BuildFn>
McfsInstance FeasibleInstance(BuildFn&& build, uint64_t seed) {
  McfsInstance instance = build(seed);
  for (uint64_t attempt = 1; attempt < 8 && !mcfs::IsFeasible(instance);
       ++attempt) {
    instance = build(DeriveSeed(seed, attempt));
  }
  return instance;
}

SolveSetup SetupUniformSmall(uint64_t seed) {
  struct Config {
    double alpha;
    double customer_fraction;  // m = fraction * n, distinct nodes
    double k_fraction;         // k = fraction * m
    int capacity;              // 0 = U[1, 10]
  };
  // Fig. 6 (a)-(d), as in bench/bench_fig6_uniform.cc.
  const Config configs[] = {{2.0, 0.10, 0.10, 20},
                            {2.0, 0.20, 0.50, 4},
                            {1.2, 0.10, 0.50, 10},
                            {1.2, 0.10, 0.50, 0}};
  // bench_fig6_uniform's sizes at its default scale: n = base / 2.
  const int bases[] = {512, 1024, 2048, 4096};
  SolveSetup setup;
  uint64_t stream = 0;
  for (const Config& config : configs) {
    for (const int base : bases) {
      const int n = base / 2;
      double t0 = NowSeconds();
      mcfs::SyntheticNetworkOptions graph_options;
      graph_options.num_nodes = n;
      graph_options.alpha = config.alpha;
      graph_options.seed = kFig6Seed + base;
      setup.graphs.push_back(std::make_unique<mcfs::Graph>(
          mcfs::GenerateSyntheticNetwork(graph_options)));
      const mcfs::Graph& graph = *setup.graphs.back();
      double t1 = NowSeconds();
      const int m = std::max(4, static_cast<int>(n * config.customer_fraction));
      auto build = [&](uint64_t instance_seed) {
        mcfs::Rng rng(instance_seed);
        McfsInstance instance;
        instance.graph = &graph;
        instance.customers = mcfs::SampleDistinctNodes(graph, m, rng);
        instance.facility_nodes = mcfs::SampleDistinctNodes(graph, n, rng);
        instance.capacities =
            config.capacity > 0 ? mcfs::UniformCapacities(n, config.capacity)
                                : mcfs::RandomCapacities(n, 1, 10, rng);
        instance.k = std::max(1, static_cast<int>(m * config.k_fraction));
        return instance;
      };
      for (int sample = 0; sample < kUniformSamples; ++sample) {
        setup.cases.push_back(FeasibleInstance(build, DeriveSeed(seed, ++stream)));
      }
      double t2 = NowSeconds();
      setup.graph_s += t1 - t0;
      setup.instances_s += t2 - t1;
    }
  }
  return setup;
}

SolveSetup SetupCityLarge(uint64_t seed) {
  SolveSetup setup;
  const mcfs::CityOptions presets[] = {
      mcfs::CopenhagenPreset(kCopenhagenScale),
      mcfs::LasVegasPreset(kLasVegasScale)};
  const int samples[] = {kCopenhagenSamples, kLasVegasSamples};
  std::vector<std::vector<McfsInstance>> per_city;
  uint64_t stream = 10;
  for (int p = 0; p < 2; ++p) {
    const mcfs::CityOptions& preset = presets[p];
    double t0 = NowSeconds();
    setup.graphs.push_back(
        std::make_unique<mcfs::Graph>(mcfs::GenerateCity(preset)));
    const mcfs::Graph& city = *setup.graphs.back();
    double t1 = NowSeconds();
    const int n = city.NumNodes();
    mcfs::Rng rng(DeriveSeed(seed, ++stream));
    // F_p = V in a seeded order, shared by every sample of this city.
    const std::vector<mcfs::NodeId> facilities =
        mcfs::SampleDistinctNodes(city, n, rng);
    const std::vector<int> capacities =
        mcfs::UniformCapacities(n, kCityCapacity);
    per_city.emplace_back();
    for (int s = 0; s < samples[p]; ++s) {
      auto build = [&](uint64_t instance_seed) {
        mcfs::Rng sample_rng(instance_seed);
        McfsInstance instance;
        instance.graph = &city;
        instance.customers =
            mcfs::SampleDistinctNodes(city, kCityCustomers, sample_rng);
        instance.facility_nodes = facilities;
        instance.capacities = capacities;
        instance.k = kCityBudget;
        return instance;
      };
      per_city.back().push_back(
          FeasibleInstance(build, DeriveSeed(seed, 1000 * stream + s)));
    }
    double t2 = NowSeconds();
    setup.graph_s += t1 - t0;
    setup.instances_s += t2 - t1;
  }
  // Interleave the cities (one organic, two grid) so every stretch of
  // the run sees both.
  static_assert(kLasVegasSamples == 2 * kCopenhagenSamples);
  for (int s = 0; s < kCopenhagenSamples; ++s) {
    setup.cases.push_back(per_city[0][s]);
    setup.cases.push_back(per_city[1][2 * s]);
    setup.cases.push_back(per_city[1][2 * s + 1]);
  }
  return setup;
}

// Sets the workload up kSetupReps times (keeping the last) and records
// the median set-up times.
SolveSetup RepeatedSetup(SetupFn setup_fn, uint64_t seed, Report* report) {
  std::vector<double> total, graph, instances;
  SolveSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = SolveSetup();
    const double t0 = NowSeconds();
    setup = setup_fn(seed);
    total.push_back(NowSeconds() - t0);
    graph.push_back(setup.graph_s);
    instances.push_back(setup.instances_s);
  }
  report->values["setup_s"] = Median(total);
  report->values["setup.graph_s"] = Median(graph);
  report->values["setup.instances_s"] = Median(instances);
  return setup;
}

// The correctness gate, outside every timed operation: each case's
// solution passes the verifier with every customer assigned and equals
// the solve at the other thread count (1 vs nproc) bit for bit. Returns
// one problem string per case (empty = clean). `other` holds those
// solutions when the caller already computed them; otherwise
// `other_threads` says which thread count to solve at.
std::vector<std::string> GateSolutions(
    const std::vector<McfsInstance>& cases,
    const std::vector<std::optional<McfsSolution>>& solutions,
    int other_threads,
    const std::vector<std::optional<McfsSolution>>* other) {
  std::vector<std::string> problems(cases.size());
  RunParallel(static_cast<int64_t>(cases.size()), mcfs::ResolveThreadCount(0),
              [&](int64_t c) {
                // A case without a solution failed, and was counted,
                // where it was solved.
                if (!solutions[c].has_value()) return;
                mcfs::VerifyOptions verify;
                verify.require_all_assigned = true;
                const mcfs::VerifyReport verdict =
                    mcfs::VerifySolution(cases[c], *solutions[c], verify);
                if (!verdict.ok) {
                  problems[c] = "verifier rejected: " + verdict.failures.front();
                  return;
                }
                if (other != nullptr) {
                  if (!(*other)[c].has_value() ||
                      !SameSolution(*(*other)[c], *solutions[c])) {
                    problems[c] = "differs across thread counts";
                  }
                  return;
                }
                mcfs::WmaOptions reference_options;
                reference_options.threads = other_threads;
                const auto reference =
                    mcfs::SolveWma(cases[c], reference_options);
                if (!reference.ok() ||
                    !SameSolution(reference.value().solution, *solutions[c])) {
                  problems[c] = "differs across thread counts";
                }
              });
  return problems;
}

// Stores the first solution of each case and checks every repeat
// against it bit for bit.
void Record(int64_t c, McfsSolution solution,
            std::vector<std::optional<McfsSolution>>* first,
            std::vector<int64_t>* ops_of_case, Report* report) {
  ++(*ops_of_case)[c];
  if (!(*first)[c].has_value()) {
    (*first)[c] = std::move(solution);
  } else if (!SameSolution(*(*first)[c], solution)) {
    report->Fail("case " + std::to_string(c) + ": repeat solve differs");
  }
}

// Charges every operation of a case that failed the gate.
void ApplyGate(const std::vector<std::string>& problems,
               const std::vector<int64_t>& ops_of_case, Report* report) {
  for (size_t c = 0; c < problems.size(); ++c) {
    if (problems[c].empty()) continue;
    for (int64_t i = 0; i < ops_of_case[c]; ++i) {
      report->Fail("case " + std::to_string(c) + ": " + problems[c]);
    }
  }
}

double SumObjectives(const std::vector<std::optional<McfsSolution>>& first) {
  double sum = 0.0;
  for (const auto& solution : first) {
    if (solution.has_value()) sum += solution->objective;
  }
  return sum;
}

Report RunUntraced(const RunOptions& run, SetupFn setup_fn) {
  Report report;
  const SolveSetup setup = RepeatedSetup(setup_fn, run.seed, &report);
  const auto& cases = setup.cases;
  const auto n = static_cast<int64_t>(cases.size());
  std::vector<std::optional<McfsSolution>> first(cases.size());
  std::vector<int64_t> ops_of_case(cases.size(), 0);
  std::vector<double> latency_ms;
  mcfs::WmaOptions options;
  options.threads = kTimedThreads;

  // Warm-up, untimed: lazy set-up (the shared thread pool, scratch
  // buffers) finishes before the window opens. Its answers are checked
  // like all others.
  const double warmup_start = NowSeconds();
  int64_t warmup_ops = 0;
  for (; warmup_ops < n && NowSeconds() - warmup_start < kWarmupSeconds;
       ++warmup_ops) {
    const int64_t c = warmup_ops;
    auto result = mcfs::SolveWma(cases[c], options);
    if (!result.ok()) {
      ++ops_of_case[c];
      report.Fail("case " + std::to_string(c) + ": " +
                  result.status().ToString());
      continue;
    }
    Record(c, std::move(result).value().solution, &first, &ops_of_case,
           &report);
  }
  // One full cycle at least, so every case is solved and checked.
  const double start = NowSeconds();
  int64_t done = 0;
  while (NowSeconds() - start < run.seconds || done < n) {
    const int64_t c = done % n;
    const double t0 = NowSeconds();
    auto result = mcfs::SolveWma(cases[c], options);
    latency_ms.push_back(1e3 * (NowSeconds() - t0));
    ++done;
    if (!result.ok()) {
      ++ops_of_case[c];
      report.Fail("case " + std::to_string(c) + ": " +
                  result.status().ToString());
      continue;
    }
    Record(c, std::move(result).value().solution, &first, &ops_of_case,
           &report);
  }
  const double window = NowSeconds() - start;
  report.values["peak_rss_mb"] = PeakRssMb();
  report.attempted = warmup_ops + done;

  ApplyGate(GateSolutions(cases, first, /*other_threads=*/0, nullptr),
            ops_of_case, &report);
  AddLatencyMetrics(latency_ms, &report);
  report.values["ops_per_s"] = static_cast<double>(done) / window;
  report.values["objective"] = SumObjectives(first);
  report.notes["instances"] = std::to_string(n);
  return report;
}

// One traced solve: ValidateInstance and RunWma are timed as separate
// spans under the operation (together they are SolveWma), and the
// WmaStats phases sit under the RunWma span.
std::optional<McfsSolution> TracedSolve(const McfsInstance& instance,
                                        const mcfs::WmaOptions& options,
                                        int64_t op, SpanLog* log,
                                        Report* report) {
  const int root = log->Begin("op", -1, op);
  const int validate = log->Begin("validate", root, op);
  const mcfs::Status status = mcfs::ValidateInstance(instance);
  log->End(validate);
  if (!status.ok()) {
    log->End(root);
    report->Fail("op " + std::to_string(op) + ": " + status.ToString());
    return std::nullopt;
  }
  const int wma = log->Begin("run_wma", root, op);
  mcfs::WmaResult result = mcfs::RunWma(instance, options);
  log->End(wma);
  log->End(root);
  AddWmaPhases(wma, result.stats, log);
  return std::move(result.solution);
}

// The traced run decomposes the solve at nproc: untraced and traced
// passes over one cycle of the instance set alternate until the run
// time is up (two of each at least), then one traced pass runs at one
// thread, the timed operation of the untraced run. The exact counters
// must repeat between all traced passes.
Report RunTraced(const RunOptions& run, SetupFn setup_fn) {
  Report report;
  const SolveSetup setup = RepeatedSetup(setup_fn, run.seed, &report);
  const auto& cases = setup.cases;
  const auto n = static_cast<int64_t>(cases.size());
  std::vector<std::optional<McfsSolution>> first(cases.size());
  std::vector<std::optional<McfsSolution>> other(cases.size());
  std::vector<int64_t> ops_of_case(cases.size(), 0);
  const mcfs::WmaOptions options;  // library default threads: nproc
  mcfs::WmaOptions other_options;
  other_options.threads = kTimedThreads;

  double untraced_seconds = 0.0;
  int64_t untraced_ops = 0;
  SpanLog traced;
  int64_t traced_ops = 0;
  std::optional<Counters> first_counters;
  int reps = 0;
  const double start = NowSeconds();
  while (reps < 2 || NowSeconds() - start < run.seconds) {
    ++reps;
    mcfs::obs::EnableMetrics(false);
    for (int64_t c = 0; c < n; ++c) {
      const double t0 = NowSeconds();
      auto result = mcfs::SolveWma(cases[c], options);
      untraced_seconds += NowSeconds() - t0;
      ++untraced_ops;
      if (!result.ok()) {
        ++ops_of_case[c];
        report.Fail("case " + std::to_string(c) + ": " +
                    result.status().ToString());
        continue;
      }
      Record(c, std::move(result).value().solution, &first, &ops_of_case,
             &report);
    }
    mcfs::obs::ResetMetrics();
    mcfs::obs::EnableMetrics(true);
    for (int64_t c = 0; c < n; ++c) {
      auto solution = TracedSolve(cases[c], options, traced_ops++, &traced,
                                  &report);
      if (solution) {
        Record(c, std::move(*solution), &first, &ops_of_case, &report);
      } else {
        ++ops_of_case[c];
      }
    }
    const Counters counters = SnapshotCounters();
    mcfs::obs::EnableMetrics(false);
    if (!first_counters) {
      first_counters = counters;
    } else {
      CheckExactCounters(*first_counters, counters,
                         "traced pass " + std::to_string(reps), &report);
    }
  }

  // The same operation set at one thread.
  SpanLog other_log;
  mcfs::obs::ResetMetrics();
  mcfs::obs::EnableMetrics(true);
  for (int64_t c = 0; c < n; ++c) {
    other[c] = TracedSolve(cases[c], other_options, c, &other_log, &report);
    ++ops_of_case[c];
  }
  CheckExactCounters(*first_counters, SnapshotCounters(), "threads=1 vs nproc",
                     &report);

  // The verifier layer, as the correctness gate runs it.
  mcfs::obs::ResetMetrics();
  SpanLog verify_log;
  for (int64_t c = 0; c < n; ++c) {
    if (!first[c]) continue;
    mcfs::VerifyOptions verify;
    verify.require_all_assigned = true;
    const int span = verify_log.Begin("verify", -1, c);
    mcfs::VerifySolution(cases[c], *first[c], verify);
    verify_log.End(span);
  }
  const Counters verify_counters = SnapshotCounters();
  mcfs::obs::EnableMetrics(false);
  ApplyGate(GateSolutions(cases, first, kTimedThreads, &other), ops_of_case,
            &report);
  report.attempted = untraced_ops + traced_ops + n;

  const std::vector<Span> spans = traced.spans();
  const std::map<std::string, double> self = SelfTimeByName(spans);
  auto per_op = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(traced_ops);
  };
  auto& v = report.values;
  v["validate.s"] = per_op("validate");
  v["wma.matching_self_s"] = per_op("wma.matching_self");
  v["wma.prefetch_s"] = per_op("wma.prefetch");
  v["wma.cover_s"] = per_op("wma.cover");
  v["wma.final_assign_s"] = per_op("wma.final_assign");
  v["wma.wrapup_s"] = per_op("wma.wrapup");
  const double traced_total = RootSeconds(spans);
  const double traced_mean = traced_total / static_cast<double>(traced_ops);
  const double one_thread_mean =
      RootSeconds(other_log.spans()) / static_cast<double>(n);
  v["wma.solve_s.threads1"] = one_thread_mean;
  v["wma.thread_speedup"] = one_thread_mean / traced_mean;
  v["unattributed_frac"] =
      (self.at("op") + self.at("run_wma")) / traced_total;
  v["trace.overhead_frac"] =
      traced_mean / (untraced_seconds / static_cast<double>(untraced_ops)) -
      1.0;
  const auto verify_spans = verify_log.spans();
  v["verify.s"] = RootSeconds(verify_spans) /
                  static_cast<double>(std::max<size_t>(1, verify_spans.size()));
  v["verify.dijkstra_runs"] =
      static_cast<double>(CounterValue(verify_counters, "verify/dijkstra_runs"));
  v["verify.customers_checked"] = static_cast<double>(
      CounterValue(verify_counters, "verify/customers_checked"));
  AddCounterMetrics(*first_counters, &report);
  report.notes["instances"] = std::to_string(n);
  report.notes["traced_passes"] = std::to_string(reps);
  report.notes["counters_cover"] = JsonString("one pass over the instances");
  report.notes["layer_boundaries"] = JsonList(
      {"op = SolveWma (ValidateInstance + RunWma)", "ValidateInstance",
       "RunWma", "WmaStats.matching - prefetch", "WmaStats.prefetch",
       "WmaStats.cover", "WmaStats.final_assign",
       "WmaStats.total - phases (wrap-up)"});
  return report;
}

}  // namespace

Report RunUniformSmall(const RunOptions& run) {
  return run.trace ? RunTraced(run, SetupUniformSmall)
                   : RunUntraced(run, SetupUniformSmall);
}

Report RunCityLarge(const RunOptions& run) {
  return run.trace ? RunTraced(run, SetupCityLarge)
                   : RunUntraced(run, SetupCityLarge);
}

}  // namespace perfbench
