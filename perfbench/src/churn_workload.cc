// bike-churn: hourly bike_sim deltas against a long-lived SolverService.
// Each operation is one epoch: ApplyUpdate with about 5% of the tracked
// bikes departing and as many arriving where the docking demand is, a
// dock moving between two stations every third epoch, then
// ResolveTracked. This is the warm path: seeded stream prefixes, the
// ResumeFrom repair, and the verifier on every warm solve.
//
// The run is a sequence of chains: a fresh service, epoch 0 planting
// the bikes (a cold solve, not measured), then kChainEpochs churn
// epochs. Fixed-length chains keep the measured epochs the same however
// fast the program is; one unbounded chain would drift into states
// only a fast build reaches. The city and the docking scenario are the
// deployment and stay fixed; --seed drives the churn.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "mcfs/common/thread_pool.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/bike_sim.h"
#include "mcfs/workload/workload.h"

namespace perfbench {
namespace {

using mcfs::McfsInstance;
using mcfs::SolveResponse;
using mcfs::UpdateKind;
using mcfs::UpdateRequest;

// bench_serve --churn's Aalborg city, with a docking scenario large
// enough that one epoch takes tens of milliseconds.
constexpr double kCityScale = 0.04;
constexpr uint64_t kScenarioSeed = 42;
constexpr int kStations = 240;
constexpr int kBikes = 480;
constexpr double kChurn = 0.05;
constexpr int kChainEpochs = 10;
// Chains whose objectives make up the objective metric; every run
// completes at least these.
constexpr int kObjectiveChains = 8;
// Chains per traced pass.
constexpr int kTracedChains = 4;
constexpr int kSetupReps = 15;
// Epochs are timed at one thread, as the solve workloads are: on a
// shared 4-vCPU host the nproc runs spread 25-30% run to run. The
// traced run decomposes nproc and runs one pass at one thread.
constexpr int kTimedThreads = 1;
// Warm and cold objectives agree to this relative tolerance (degenerate
// optima can round the last bit differently).
constexpr double kObjectiveTolerance = 1e-9;

struct ChurnSetup {
  std::unique_ptr<mcfs::Graph> city;
  mcfs::BikeScenario scenario;
  int k = 0;
};

ChurnSetup BuildChurnSetup(double* graph_s, double* instances_s) {
  ChurnSetup setup;
  const double t0 = NowSeconds();
  setup.city = std::make_unique<mcfs::Graph>(
      mcfs::GenerateCity(mcfs::AalborgPreset(kCityScale, kScenarioSeed)));
  const double t1 = NowSeconds();
  const mcfs::Graph& city = *setup.city;
  mcfs::BikeSimOptions sim;
  sim.seed = kScenarioSeed;
  sim.num_stations = kStations;
  sim.num_bikes = kBikes;
  setup.scenario = mcfs::GenerateBikeScenario(city, sim);
  const mcfs::BikeScenario& scenario = setup.scenario;
  const int l = static_cast<int>(scenario.stations.size());
  // The smallest feasible budget from l / 3 up, plus slack for the
  // capacity moves, as bench_serve --churn chooses it.
  int k = std::max(2, l / 3);
  for (; k < l; ++k) {
    McfsInstance probe;
    probe.graph = &city;
    probe.customers = scenario.bikes;
    probe.facility_nodes = scenario.stations;
    probe.capacities = scenario.capacities;
    probe.k = k;
    if (mcfs::IsFeasible(probe)) break;
  }
  setup.k = std::min(l, k + 2);
  *graph_s = t1 - t0;
  *instances_s = NowSeconds() - t1;
  return setup;
}

// The seeded churn stream. It mirrors the service's tracked population
// (a departure removes the last occurrence of its node, an arrival
// appends), so every delta it produces is valid. Two streams from one
// seed produce the same deltas.
class ChurnStream {
 public:
  ChurnStream(const ChurnSetup& setup, uint64_t seed)
      : scenario_(setup.scenario),
        rng_(DeriveSeed(seed, 1)),
        tracked_(scenario_.bikes),
        capacities_(scenario_.capacities) {}

  // The delta applied before epoch `e`; epoch 0 plants every bike.
  UpdateRequest Next(int e) {
    UpdateRequest delta;
    if (e == 0) {
      for (const mcfs::NodeId bike : scenario_.bikes) {
        delta.ops.push_back({UpdateKind::kCustomerArrive, bike, 0});
      }
      return delta;
    }
    const int moves = std::max(1, static_cast<int>(kChurn * kBikes));
    for (int t = 0; t < moves; ++t) {
      const size_t at = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(tracked_.size()) - 1));
      const mcfs::NodeId node = tracked_[at];
      delta.ops.push_back({UpdateKind::kCustomerDepart, node, 0});
      tracked_.erase(
          std::next(std::find(tracked_.rbegin(), tracked_.rend(), node)).base());
    }
    for (const mcfs::NodeId node :
         mcfs::SampleDistinctNodesWeighted(scenario_.demand, moves, rng_)) {
      delta.ops.push_back({UpdateKind::kCustomerArrive, node, 0});
      tracked_.push_back(node);
    }
    if (e % 3 == 0) {
      const int l = static_cast<int>(scenario_.stations.size());
      const int up = static_cast<int>(rng_.UniformInt(0, l - 1));
      const int down = static_cast<int>(rng_.UniformInt(0, l - 1));
      if (up != down && capacities_[down] > 1) {
        delta.ops.push_back(
            {UpdateKind::kCapacityDelta, scenario_.stations[up], +1});
        delta.ops.push_back(
            {UpdateKind::kCapacityDelta, scenario_.stations[down], -1});
        ++capacities_[up];
        --capacities_[down];
      }
    }
    return delta;
  }

 private:
  const mcfs::BikeScenario& scenario_;
  mcfs::Rng rng_;
  std::vector<mcfs::NodeId> tracked_;
  std::vector<int> capacities_;
};

std::unique_ptr<mcfs::SolverService> MakeService(const ChurnSetup& setup,
                                                 int threads) {
  mcfs::ServiceOptions options;
  options.serve_threads = threads;
  options.wma.threads = threads;
  return std::make_unique<mcfs::SolverService>(
      setup.city.get(), setup.scenario.stations, setup.scenario.capacities,
      options);
}

// One epoch as the caller saw it.
struct Epoch {
  double op_ms = 0.0;
  double apply_ms = 0.0;
  double resolve_ms = 0.0;
  bool ok = false;
  SolveResponse response;
  McfsInstance instance;  // what ResolveTracked solved
};

// Runs chain `chain` on a fresh service: epoch 0 plants the tracked
// population and the first warm seed, then kChainEpochs churn epochs
// follow. With a span log, each churn epoch is traced: ApplyUpdate and
// ResolveTracked spans under the operation, the response's preprocess
// and solve phases under ResolveTracked, and the WmaStats phases under
// the solve.
std::vector<Epoch> RunChain(const ChurnSetup& setup, uint64_t seed, int chain,
                            int threads, SpanLog* log, Report* report) {
  auto service = MakeService(setup, threads);
  ChurnStream stream(setup, DeriveSeed(seed, 100 + chain));
  std::vector<Epoch> epochs;
  for (int e = 0; e <= kChainEpochs; ++e) {
    const UpdateRequest delta = stream.Next(e);
    // Epoch 0 is set-up work (the cold solve that plants the first
    // seed), so it is never traced.
    SpanLog* trace = e > 0 ? log : nullptr;
    Epoch epoch;
    int root = -1, apply = -1, resolve = -1;
    if (trace != nullptr) root = trace->Begin("op", -1, e);
    if (trace != nullptr) apply = trace->Begin("apply_update", root, e);
    const double t0 = NowSeconds();
    const auto applied = service->ApplyUpdate(delta);
    const double t1 = NowSeconds();
    if (trace != nullptr) trace->End(apply);
    if (trace != nullptr) resolve = trace->Begin("resolve_tracked", root, e);
    epoch.response = service->ResolveTracked(setup.k);
    const double t2 = NowSeconds();
    if (trace != nullptr) {
      trace->End(resolve);
      trace->End(root);
      const SolveResponse& r = epoch.response;
      const int preprocess =
          trace->AddPhases(resolve, trace->span(resolve).start,
                           {{"resolve.preprocess", r.preprocess_seconds},
                            {"resolve.solve", r.solve_seconds}});
      AddWmaPhases(preprocess + 1, r.stats, trace);
    }
    epoch.apply_ms = 1e3 * (t1 - t0);
    epoch.resolve_ms = 1e3 * (t2 - t1);
    epoch.op_ms = 1e3 * (t2 - t0);
    epoch.ok = applied.ok() && epoch.response.status.ok() &&
               (!epoch.response.verify_ran || epoch.response.verify_ok);
    if (!epoch.ok) {
      report->Fail("epoch " + std::to_string(e) + ": " +
                   (applied.ok() ? epoch.response.status.ToString()
                                 : applied.status().ToString()));
    }
    epoch.instance = service->TrackedInstance(setup.k);
    epochs.push_back(std::move(epoch));
  }
  return epochs;
}

// The gate, outside the timed operations: each epoch's warm objective
// equals a cold SolveWma of the same instance. Returns the cold times.
std::vector<double> CheckAgainstCold(const std::vector<Epoch>& epochs,
                                     Report* report) {
  const auto n = static_cast<int64_t>(epochs.size());
  std::vector<std::string> problems(epochs.size());
  std::vector<double> cold_ms(epochs.size());
  RunParallel(n, mcfs::ResolveThreadCount(0), [&](int64_t e) {
    if (!epochs[e].ok) return;
    mcfs::WmaOptions one;
    one.threads = 1;
    const double t0 = NowSeconds();
    const auto cold = mcfs::SolveWma(epochs[e].instance, one);
    cold_ms[e] = 1e3 * (NowSeconds() - t0);
    if (!cold.ok()) {
      problems[e] = "cold reference failed: " + cold.status().ToString();
      return;
    }
    const double warm = epochs[e].response.solution.objective;
    const double reference = cold.value().solution.objective;
    if (std::abs(warm - reference) / (1.0 + std::abs(reference)) >
        kObjectiveTolerance) {
      problems[e] = "warm objective differs from the cold reference";
    }
  });
  for (int64_t e = 0; e < n; ++e) {
    if (!problems[e].empty()) {
      report->Fail("epoch " + std::to_string(e) + ": " + problems[e]);
    }
  }
  return cold_ms;
}

using Chains = std::vector<std::vector<Epoch>>;

// Every pass replays the same chains, so each epoch's objective must
// match the gated pass's, within the warm/cold tolerance.
void CheckSameObjectives(const Chains& reference, const Chains& run,
                         const std::string& what, Report* report) {
  for (size_t c = 0; c < reference.size() && c < run.size(); ++c) {
    for (size_t e = 0; e < reference[c].size() && e < run[c].size(); ++e) {
      const double want = reference[c][e].response.solution.objective;
      const double got = run[c][e].response.solution.objective;
      if (std::abs(want - got) / (1.0 + std::abs(want)) > kObjectiveTolerance) {
        report->Fail(what + ": chain " + std::to_string(c) + " epoch " +
                     std::to_string(e) + " differs from the gated pass");
      }
    }
  }
}

// One field over the churn epochs of every chain (epoch 0 excluded).
std::vector<double> ChurnColumn(const Chains& chains, double Epoch::*field) {
  std::vector<double> values;
  for (const auto& epochs : chains) {
    for (size_t e = 1; e < epochs.size(); ++e) {
      values.push_back(epochs[e].*field);
    }
  }
  return values;
}

// Runs chains first, first + 1, ... while `more(count)` says so.
template <typename MoreFn>
Chains RunChains(const ChurnSetup& setup, uint64_t seed, int threads,
                 MoreFn&& more, SpanLog* log, Report* report) {
  Chains chains;
  for (int c = 0; more(c); ++c) {
    chains.push_back(RunChain(setup, seed, c, threads, log, report));
  }
  return chains;
}

void AddCounters(const Counters& add, Counters* sum) {
  for (const auto& [name, value] : add) (*sum)[name] += value;
}

// The exact-counter check's threads = 1 side. Every epoch of the first
// `chains` chains runs again at one thread from the warm state the
// nproc service held before it: the nproc service checkpoints to
// `path`, and a fresh threads = 1 service restores the checkpoint,
// applies the epoch's delta and resolves. Epoch 0, the cold planting,
// runs on a fresh threads = 1 service. Returns the summed counters of
// the threads = 1 epochs. Each replayed objective must equal the nproc
// epoch's.
Counters ReplayEpochsAtOneThread(const ChurnSetup& setup, uint64_t seed,
                                 int chains, const std::string& path,
                                 Report* report) {
  Counters total;
  for (int c = 0; c < chains; ++c) {
    auto service = MakeService(setup, 0);
    ChurnStream stream(setup, DeriveSeed(seed, 100 + c));
    for (int e = 0; e <= kChainEpochs; ++e) {
      const UpdateRequest delta = stream.Next(e);
      auto one = MakeService(setup, kTimedThreads);
      if (e > 0) {
        mcfs::Status restored = service->CheckpointTo(path);
        if (restored.ok()) restored = one->RestoreFrom(path);
        if (!restored.ok()) {
          report->Fail("threads=1 replay checkpoint: " + restored.ToString());
          std::remove(path.c_str());
          return total;
        }
      }
      mcfs::obs::ResetMetrics();
      mcfs::obs::EnableMetrics(true);
      const bool applied = one->ApplyUpdate(delta).ok();
      const SolveResponse replayed = one->ResolveTracked(setup.k);
      AddCounters(SnapshotCounters(), &total);
      mcfs::obs::EnableMetrics(false);
      service->ApplyUpdate(delta);
      const SolveResponse original = service->ResolveTracked(setup.k);
      const double want = original.solution.objective;
      if (!applied || !replayed.status.ok() ||
          std::abs(replayed.solution.objective - want) /
                  (1.0 + std::abs(want)) >
              kObjectiveTolerance) {
        report->Fail("threads=1 replay: chain " + std::to_string(c) +
                     " epoch " + std::to_string(e) +
                     " differs from the nproc epoch");
      }
    }
  }
  std::remove(path.c_str());
  return total;
}

}  // namespace

Report RunBikeChurn(const RunOptions& run) {
  Report report;
  std::vector<double> total, graph, instances, service;
  ChurnSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double graph_s = 0.0, instances_s = 0.0;
    const double t0 = NowSeconds();
    setup = BuildChurnSetup(&graph_s, &instances_s);
    const double t1 = NowSeconds();
    {
      // The service with its tracked population: epoch 0's update.
      auto warm = MakeService(setup, 0);
      warm->ApplyUpdate(ChurnStream(setup, run.seed).Next(0));
    }
    const double t2 = NowSeconds();
    total.push_back(t2 - t0);
    graph.push_back(graph_s);
    instances.push_back(instances_s);
    service.push_back(t2 - t1);
  }
  auto& v = report.values;

  if (!run.trace) {
    const double start = NowSeconds();
    const Chains chains = RunChains(
        setup, run.seed, kTimedThreads,
        [&](int c) {
          return c < kObjectiveChains || NowSeconds() - start < run.seconds;
        },
        nullptr, &report);
    const double window = NowSeconds() - start;
    v["peak_rss_mb"] = PeakRssMb();
    for (const auto& epochs : chains) {
      report.attempted += static_cast<int64_t>(epochs.size());
      CheckAgainstCold(epochs, &report);
    }
    const std::vector<double> op_ms = ChurnColumn(chains, &Epoch::op_ms);
    double planting_ms = 0.0;
    for (const auto& epochs : chains) planting_ms += epochs.front().op_ms;
    double objective = 0.0;
    for (int c = 0; c < kObjectiveChains; ++c) {
      for (int e = 1; e <= kChainEpochs; ++e) {
        objective += chains[c][e].response.solution.objective;
      }
    }
    v["setup_s"] = Median(total);
    AddLatencyMetrics(op_ms, &report);
    v["ops_per_s"] =
        static_cast<double>(op_ms.size()) / (window - 1e-3 * planting_ms);
    v["objective"] = objective;
    report.notes["chains"] = std::to_string(chains.size());
    return report;
  }

  v["setup.graph_s"] = Median(graph);
  v["setup.instances_s"] = Median(instances);
  v["setup.service_s"] = Median(service);
  auto pass_chains = [](int c) { return c < kTracedChains; };
  const int64_t pass_epochs = kTracedChains * (kChainEpochs + 1);
  // Untraced and traced passes alternate (two each at least), then a
  // traced pass at threads = 1. Every pass replays the same chains on
  // fresh services, so the exact counters must repeat.
  std::vector<double> untraced_ms, traced_ms;
  SpanLog log;
  Chains traced;  // the first traced pass, which the gate checks
  std::vector<std::pair<std::string, Chains>> replays;
  std::optional<Counters> first_counters;
  int reps = 0;
  const double start = NowSeconds();
  while (reps < 2 || NowSeconds() - start < run.seconds) {
    ++reps;
    mcfs::obs::EnableMetrics(false);
    Chains plain = RunChains(setup, run.seed, 0, pass_chains, nullptr, &report);
    const std::vector<double> plain_ms = ChurnColumn(plain, &Epoch::op_ms);
    untraced_ms.insert(untraced_ms.end(), plain_ms.begin(), plain_ms.end());
    replays.emplace_back("untraced pass " + std::to_string(reps),
                         std::move(plain));
    report.attempted += pass_epochs;
    mcfs::obs::ResetMetrics();
    mcfs::obs::EnableMetrics(true);
    SpanLog* pass_log = first_counters ? nullptr : &log;
    Chains pass =
        RunChains(setup, run.seed, 0, pass_chains, pass_log, &report);
    const Counters counters = SnapshotCounters();
    mcfs::obs::EnableMetrics(false);
    const std::vector<double> pass_ms = ChurnColumn(pass, &Epoch::op_ms);
    traced_ms.insert(traced_ms.end(), pass_ms.begin(), pass_ms.end());
    report.attempted += pass_epochs;
    if (!first_counters) {
      first_counters = counters;
      traced = std::move(pass);
    } else {
      CheckExactCounters(*first_counters, counters,
                         "traced pass " + std::to_string(reps), &report);
      replays.emplace_back("traced pass " + std::to_string(reps),
                           std::move(pass));
    }
  }
  mcfs::obs::ResetMetrics();
  mcfs::obs::EnableMetrics(true);
  Chains single = RunChains(setup, run.seed, kTimedThreads, pass_chains,
                            nullptr, &report);
  const Counters single_counters = SnapshotCounters();
  mcfs::obs::EnableMetrics(false);
  report.attempted += pass_epochs;
  // threads = 1 against nproc, epoch by epoch from the same warm state.
  const Counters replayed = ReplayEpochsAtOneThread(
      setup, run.seed, kTracedChains, run.work_dir + "/bike-churn.ckpt",
      &report);
  report.attempted += pass_epochs;
  CheckExactCounters(*first_counters, replayed,
                     "threads=1 vs nproc from the same warm state", &report);
  // Whole chains at the two thread counts carry different warm seeds:
  // the exported seed holds the discovered but unpopped stream entries,
  // a replayed entry is charged no work, and at nproc the prefetch has
  // discovered more of them. So the logical counters of a whole chain
  // drift with the thread count, against the library's counter contract.
  // The drift is reported, not failed: it is a defect of the library's
  // warm-seed attribution, not of one epoch's work.
  int64_t drift = 0;
  std::vector<std::string> drifts;
  for (const std::string& name : ExactCounterNames()) {
    const int64_t want = CounterValue(*first_counters, name);
    const int64_t got = CounterValue(single_counters, name);
    if (want == got) continue;
    drift += std::abs(want - got);
    drifts.push_back(name + " (nproc vs threads=1 chains): " +
                     std::to_string(want) + " vs " + std::to_string(got));
  }
  for (const std::string& d : drifts) {
    std::fprintf(stderr, "perfbench: warm chain counter drift: %s\n",
                 d.c_str());
  }
  report.notes["warm_chain_counter_drift"] = JsonList(drifts);
  v["check.chain_thread_drift"] = static_cast<double>(drift);

  const double single_ms = Mean(ChurnColumn(single, &Epoch::op_ms));
  replays.emplace_back("threads=1 pass", std::move(single));
  for (const auto& [what, chains] : replays) {
    CheckSameObjectives(traced, chains, what, &report);
  }
  std::vector<double> cold_ms;
  for (const auto& epochs : traced) {
    const std::vector<double> chain_ms = CheckAgainstCold(epochs, &report);
    cold_ms.insert(cold_ms.end(), chain_ms.begin() + 1, chain_ms.end());
  }
  // The verifier layer on these solutions, timed from outside.
  std::vector<double> verify_s;
  for (const auto& epochs : traced) {
    for (size_t e = 1; e < epochs.size(); ++e) {
      mcfs::VerifyOptions verify;
      verify.require_all_assigned = true;
      const double t0 = NowSeconds();
      const mcfs::VerifyReport verdict = mcfs::VerifySolution(
          epochs[e].instance, epochs[e].response.solution, verify);
      verify_s.push_back(NowSeconds() - t0);
      if (!verdict.ok) report.Fail("verifier rejected a served epoch");
    }
  }

  const std::vector<Span> spans = log.spans();
  const std::map<std::string, double> self = SelfTimeByName(spans);
  const double ops = static_cast<double>(kTracedChains * kChainEpochs);
  auto per_op = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / ops;
  };
  v["wma.matching_self_s"] = per_op("wma.matching_self");
  v["wma.prefetch_s"] = per_op("wma.prefetch");
  v["wma.cover_s"] = per_op("wma.cover");
  v["wma.final_assign_s"] = per_op("wma.final_assign");
  v["wma.wrapup_s"] = per_op("wma.wrapup");
  const double traced_total = RootSeconds(spans);
  v["unattributed_frac"] =
      (self.at("op") + self.at("resolve_tracked") + self.at("resolve.solve")) /
      traced_total;
  v["trace.overhead_frac"] = Mean(traced_ms) / Mean(untraced_ms) - 1.0;
  v["wma.solve_s.threads1"] = 1e-3 * single_ms;
  v["wma.thread_speedup"] = single_ms / Mean(ChurnColumn(traced, &Epoch::op_ms));

  std::vector<double> apply_ms, warm_ms;
  int64_t warm_served = 0, reused = 0, repaired = 0;
  for (const auto& epochs : traced) {
    for (size_t e = 1; e < epochs.size(); ++e) {
      const Epoch& epoch = epochs[e];
      apply_ms.push_back(epoch.apply_ms);
      if (epoch.response.warm_served) {
        ++warm_served;
        warm_ms.push_back(epoch.resolve_ms);
      }
      reused += epoch.response.stats.warm_customers_reused;
      repaired += epoch.response.stats.warm_customers_repaired;
    }
  }
  v["resolve.apply_update_ms.p50"] = Percentile(apply_ms, 0.50);
  v["resolve.warm_ms.p50"] = Percentile(warm_ms, 0.50);
  v["resolve.warm_served_ratio"] = static_cast<double>(warm_served) / ops;
  v["resolve.repair_fraction"] =
      reused + repaired == 0
          ? 0.0
          : static_cast<double>(repaired) / static_cast<double>(reused + repaired);
  v["resolve.verify_rejections"] = static_cast<double>(
      CounterValue(*first_counters, "resolve/verify_rejections"));
  v["resolve.cold_ref_ms.p50"] = Percentile(cold_ms, 0.50);
  v["verify.s"] = Mean(verify_s);
  v["verify.dijkstra_runs"] = static_cast<double>(
      CounterValue(*first_counters, "verify/dijkstra_runs"));
  v["verify.customers_checked"] = static_cast<double>(
      CounterValue(*first_counters, "verify/customers_checked"));
  AddCounterMetrics(*first_counters, &report);
  report.notes["chains_per_pass"] = std::to_string(kTracedChains);
  report.notes["epochs_per_chain"] = std::to_string(kChainEpochs);
  report.notes["traced_passes"] = std::to_string(reps);
  report.notes["counters_cover"] =
      JsonString("one pass of chains, each on a fresh service");
  report.notes["layer_boundaries"] = JsonList(
      {"op = ApplyUpdate + ResolveTracked", "ApplyUpdate", "ResolveTracked",
       "SolveResponse.preprocess_seconds", "SolveResponse.solve_seconds",
       "WmaStats phases under the solve",
       "unattributed = verifier and warm-seed plumbing inside "
       "ResolveTracked, RunWma call overhead, bench glue"});
  return report;
}

}  // namespace perfbench
