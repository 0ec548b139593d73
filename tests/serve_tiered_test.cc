// Tiered serving contract (DESIGN.md §4.14): requests under a tight
// max_latency_ms SLA are answered inline by the instant responder as
// tier == "fast" — verifier-checked, quality-bounded — while the full
// WMA runs in the background and upgrades the cached fast entry in
// place (same key, same epoch, same trace id). Also covers the riders:
// the lossless EWMA teach-in, the degenerate quality-bound sentinel,
// and the shutdown flag that distinguishes "stop retrying" from a
// live service hinting retry_after_ms == 0.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mcfs/common/fault_plan.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/graph.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

struct ServeFixture {
  testing_util::RandomInstance ri;

  explicit ServeFixture(uint64_t seed) {
    Rng rng(seed);
    ri = testing_util::MakeRandomInstance(200, 60, 30, 12, 15, rng);
    ri.instance.graph = &ri.graph;
  }

  const McfsInstance& catalog() const { return ri.instance; }

  McfsInstance RequestInstance(const SolveRequest& request) const {
    McfsInstance instance;
    instance.graph = catalog().graph;
    instance.customers = request.customers;
    instance.k = request.k;
    if (request.facility_subset.empty()) {
      instance.facility_nodes = catalog().facility_nodes;
      instance.capacities = catalog().capacities;
    } else {
      for (const int idx : request.facility_subset) {
        instance.facility_nodes.push_back(catalog().facility_nodes[idx]);
        instance.capacities.push_back(catalog().capacities[idx]);
      }
    }
    return instance;
  }

  std::unique_ptr<SolverService> MakeService(
      const ServiceOptions& options = {}) const {
    return std::make_unique<SolverService>(
        catalog().graph, catalog().facility_nodes, catalog().capacities,
        options);
  }
};

bool SameSolution(const McfsSolution& a, const McfsSolution& b) {
  return a.selected == b.selected && a.assignment == b.assignment &&
         a.distances == b.distances && a.objective == b.objective &&
         a.feasible == b.feasible && a.termination == b.termination;
}

// Options that make the admission estimator believe a full solve takes
// 10 seconds, so any request with a tight SLA deterministically goes to
// the instant responder.
ServiceOptions SlowEstimateOptions() {
  ServiceOptions options;
  options.expected_solve_ms = 10000.0;
  return options;
}

SolveRequest SlaRequest(const ServeFixture& fx, int64_t max_latency_ms = 1) {
  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  request.max_latency_ms = max_latency_ms;
  return request;
}

TEST(ServeTiered, FastTierServesUnderTightSla) {
  ServeFixture fx(21);
  auto service = fx.MakeService(SlowEstimateOptions());

  const SolveRequest request = SlaRequest(fx);
  const SolveResponse response = service->SolveSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.tier, "fast");
  EXPECT_FALSE(response.cache_hit);
  EXPECT_TRUE(response.verify_ran);
  EXPECT_TRUE(response.verify_ok);
  EXPECT_TRUE(response.solution.feasible);
  // The bound is a real ratio (>= 1) or the degenerate sentinel — never
  // the "no bound computed" 0.
  EXPECT_TRUE(response.quality_bound >= 1.0 ||
              response.quality_bound == kDegenerateQualityBound)
      << response.quality_bound;

  // The verifier's verdict holds from first principles too.
  const VerifyReport verdict =
      VerifySolution(fx.RequestInstance(request), response.solution);
  EXPECT_TRUE(verdict.ok);

  const ServiceReport report = service->Report();
  EXPECT_GE(report.fast_responses, 1);
  EXPECT_EQ(report.latency_fast.count, 1);
  service->DrainRefinements();
}

TEST(ServeTiered, FastAnswersVerifierFeasibleAcrossServeThreads) {
  ServeFixture fx(22);
  const std::vector<NodeId>& all = fx.catalog().customers;
  for (const int serve_threads : {1, 2, 8}) {
    ServiceOptions options = SlowEstimateOptions();
    options.serve_threads = serve_threads;
    options.cache_capacity = 0;  // every fast request really answers
    auto service = fx.MakeService(options);

    std::vector<SolveRequest> requests;
    requests.push_back(SlaRequest(fx));
    SolveRequest fewer = SlaRequest(fx);
    fewer.customers.assign(all.begin(), all.begin() + 20);
    fewer.k = 6;
    requests.push_back(fewer);

    std::vector<std::shared_ptr<ResponseHandle>> handles;
    for (const SolveRequest& request : requests) {
      handles.push_back(service->Submit(request));
    }
    for (size_t r = 0; r < requests.size(); ++r) {
      const SolveResponse& response = handles[r]->Wait();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(response.tier, "fast")
          << "request " << r << " at serve_threads " << serve_threads;
      EXPECT_TRUE(response.verify_ok);
      const VerifyReport verdict =
          VerifySolution(fx.RequestInstance(requests[r]), response.solution);
      EXPECT_TRUE(verdict.ok)
          << "request " << r << " at serve_threads " << serve_threads;
    }
  }
}

TEST(ServeTiered, RefinementUpgradesCacheEntryInPlace) {
  ServeFixture fx(23);
  auto service = fx.MakeService(SlowEstimateOptions());

  const SolveRequest request = SlaRequest(fx);
  const SolveResponse fast = service->SolveSync(request);
  ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
  ASSERT_EQ(fast.tier, "fast");

  // Before the refinement drains, the entry is present at tier "fast"
  // under this request's trace id. (The refiner may already have run;
  // accept either tier but the identity must hold.)
  const CacheProbe before = service->ProbeCache(request);
  ASSERT_TRUE(before.present);
  EXPECT_EQ(before.epoch, fast.epoch);
  EXPECT_EQ(before.trace_id, fast.trace_id);

  service->DrainRefinements();

  // Upgraded in place: same key, same epoch, same trace id, converged
  // tier, bound cleared.
  const CacheProbe after = service->ProbeCache(request);
  ASSERT_TRUE(after.present);
  EXPECT_EQ(after.tier, "full");
  EXPECT_EQ(after.epoch, fast.epoch);
  EXPECT_EQ(after.trace_id, fast.trace_id);
  EXPECT_EQ(after.quality_bound, 0.0);

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.refines_enqueued, 1);
  EXPECT_EQ(report.refine_runs, 1);
  EXPECT_EQ(report.refine_upgrades, 1);
  EXPECT_EQ(report.refine_discards, 0);

  // A later hit on the same identity serves the converged answer —
  // bit-identical to a direct SolveWma — even to another SLA request.
  const SolveResponse hit = service->SolveSync(request);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.tier, "full");
  EXPECT_EQ(hit.quality_bound, 0.0);
  const StatusOr<WmaResult> direct = SolveWma(fx.RequestInstance(request));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSolution(hit.solution, direct.value().solution));
}

TEST(ServeTiered, RefineFalseIsFinalAndNeverCached) {
  ServeFixture fx(24);
  auto service = fx.MakeService(SlowEstimateOptions());

  SolveRequest request = SlaRequest(fx);
  request.refine = false;
  const SolveResponse fast = service->SolveSync(request);
  ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
  ASSERT_EQ(fast.tier, "fast");

  service->DrainRefinements();
  const CacheProbe probe = service->ProbeCache(request);
  EXPECT_FALSE(probe.present);
  const ServiceReport report = service->Report();
  EXPECT_EQ(report.refines_enqueued, 0);
  EXPECT_EQ(report.refine_runs, 0);
  EXPECT_EQ(report.refine_upgrades, 0);
}

TEST(ServeTiered, SubsetSlaRequestFallsThroughToFullSolve) {
  ServeFixture fx(25);
  auto service = fx.MakeService(SlowEstimateOptions());

  SolveRequest request = SlaRequest(fx);
  for (int j = 0; j < fx.catalog().l(); j += 2) {
    request.facility_subset.push_back(j);
  }
  const SolveResponse response = service->SolveSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // The instant responder only has precomputed distances for the full
  // catalog; a subset SLA request trades the SLA for fidelity.
  EXPECT_EQ(response.tier, "full");
  const StatusOr<WmaResult> direct = SolveWma(fx.RequestInstance(request));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSolution(response.solution, direct.value().solution));
  EXPECT_GE(service->Report().fast_fallthroughs, 1);
}

TEST(ServeTiered, LooseSlaTakesTheFullPathWhenEstimateFits) {
  ServeFixture fx(26);
  ServiceOptions options;
  options.expected_solve_ms = 0.001;  // estimator: solves are instant
  auto service = fx.MakeService(options);

  const SolveRequest request = SlaRequest(fx, /*max_latency_ms=*/100000);
  const SolveResponse response = service->SolveSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.tier, "full");
  const StatusOr<WmaResult> direct = SolveWma(fx.RequestInstance(request));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSolution(response.solution, direct.value().solution));
  EXPECT_EQ(service->Report().fast_responses, 0);
}

// Concurrent SLA + full traffic on the same identity set: every OK
// response is internally consistent (a fast answer carries its bound
// and verifier blessing; a full answer carries neither), and after the
// refiner drains every cached entry reads converged — readers never
// observe a torn upgrade.
TEST(ServeTiered, ConcurrentUpgradesNeverTearAcrossServeThreads) {
  ServeFixture fx(27);
  const std::vector<NodeId>& all = fx.catalog().customers;
  for (const int serve_threads : {1, 2, 8}) {
    ServiceOptions options = SlowEstimateOptions();
    options.serve_threads = serve_threads;
    auto service = fx.MakeService(options);

    // Three request identities, hit by both SLA and full submitters.
    std::vector<SolveRequest> identities;
    for (int i = 0; i < 3; ++i) {
      SolveRequest request;
      request.customers.assign(all.begin(), all.begin() + 20 + 5 * i);
      request.k = 6 + i;
      identities.push_back(request);
    }

    std::atomic<int> torn{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < 6; ++i) {
          SolveRequest request = identities[(t + i) % identities.size()];
          if ((t + i) % 2 == 0) request.max_latency_ms = 1;
          const SolveResponse response =
              service->SolveSync(std::move(request));
          if (!response.status.ok()) continue;
          if (response.tier == "fast") {
            if (!(response.verify_ran && response.verify_ok &&
                  response.quality_bound != 0.0)) {
              torn++;
            }
          } else if (response.tier == "full") {
            if (response.quality_bound != 0.0) torn++;
          } else {
            torn++;  // no degraded traffic in this test
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(torn.load(), 0) << "serve_threads " << serve_threads;

    service->DrainRefinements();
    for (const SolveRequest& request : identities) {
      const CacheProbe probe = service->ProbeCache(request);
      if (!probe.present) continue;  // identity only saw refine-less paths
      EXPECT_EQ(probe.tier, "full") << "serve_threads " << serve_threads;
      const SolveResponse hit = service->SolveSync(request);
      ASSERT_TRUE(hit.status.ok());
      const StatusOr<WmaResult> direct =
          SolveWma(fx.RequestInstance(request));
      ASSERT_TRUE(direct.ok());
      EXPECT_TRUE(SameSolution(hit.solution, direct.value().solution));
    }
  }
}

// Satellite regression: the EWMA read-modify-write must not lose
// concurrent updates. With sample 0.0 every update is exactly
// v' = 0.8 * v, which commutes — so after n hammered updates from any
// number of threads the value must bit-equal the sequential replay
// 1000 * 0.8^n. The old load-then-store version loses updates under
// contention (each loss = one missing multiply = off by 1.25x); under
// TSan it is a reported data race.
TEST(ServeTiered, EwmaTeachInIsLosslessUnderContention) {
  std::atomic<double> ewma{1000.0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) UpdateEwma(ewma, 0.0);
    });
  }
  for (std::thread& t : threads) t.join();

  double expected = 1000.0;
  for (int i = 0; i < kThreads * kPerThread; ++i) expected *= 0.8;
  EXPECT_EQ(ewma.load(), expected);
}

// Satellite regression: co-located customers drive the nearest-facility
// lower bound to 0 while capacity overflow forces a positive objective.
// The quality bound must be the defined sentinel, not inf (which JSON
// renders null and comparisons misread).
TEST(ServeTiered, CoLocatedOverflowYieldsDegenerateBoundSentinel) {
  // Path 0 - 1 - 2. Three customers on node 0; the facility there holds
  // one, so two overflow to node 2 at distance 2. Lower bound: all
  // three at their nearest facility (node 0, distance 0) = 0.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  Graph graph = builder.Build();

  ServiceOptions options;
  options.expected_solve_ms = 10000.0;
  SolverService service(&graph, {0, 2}, {1, 5}, options);

  SolveRequest request;
  request.customers = {0, 0, 0};
  request.k = 2;
  request.max_latency_ms = 1;
  const SolveResponse response = service.SolveSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.tier, "fast");
  EXPECT_GT(response.solution.objective, 0.0);
  EXPECT_EQ(response.quality_bound, kDegenerateQualityBound);
  service.DrainRefinements();
}

// Rung 2 of the degradation ladder is the fast tier's cheap-answer
// step: a forced verifier rejection on an allow_degraded request serves
// a targeted- and full-verifier-clean answer whose bytes equal the fast
// tier's answer to the same request.
FaultPlanSpec OneVerifyRejection() {
  FaultPlanSpec spec;
  spec.rate[static_cast<int>(FaultKind::kVerifyReject)] = 1.0;
  spec.max_fires[static_cast<int>(FaultKind::kVerifyReject)] = 1;
  return spec;
}

void ExpectVerifiedDegraded(const McfsInstance& instance,
                            const SolveResponse& response) {
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.tier, "degraded");
  EXPECT_TRUE(response.verify_ran);
  EXPECT_TRUE(response.verify_ok);
  EXPECT_TRUE(response.solution.feasible);
  EXPECT_TRUE(response.quality_bound >= 1.0 ||
              response.quality_bound == kDegenerateQualityBound)
      << response.quality_bound;
  VerifyOptions targeted;
  targeted.targeted = true;
  EXPECT_TRUE(VerifySolution(instance, response.solution, targeted).ok);
  EXPECT_TRUE(VerifySolution(instance, response.solution).ok);
}

TEST(ServeTiered, ForcedRejectionServesTheFastTierAnswerAsDegraded) {
  ServeFixture fx(29);
  ServiceOptions options = SlowEstimateOptions();
  options.fault_plan = std::make_shared<FaultPlan>(OneVerifyRejection());
  auto service = fx.MakeService(options);

  SolveRequest fast_request = SlaRequest(fx);
  fast_request.refine = false;
  const SolveResponse fast = service->SolveSync(fast_request);
  ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
  ASSERT_EQ(fast.tier, "fast");

  SolveRequest request;
  request.customers = fast_request.customers;
  request.k = fast_request.k;
  request.allow_degraded = true;
  const SolveResponse degraded = service->SolveSync(request);
  ExpectVerifiedDegraded(fx.RequestInstance(request), degraded);
  EXPECT_EQ(degraded.solution.selected, fast.solution.selected);
  EXPECT_EQ(degraded.solution.assignment, fast.solution.assignment);
  EXPECT_EQ(degraded.quality_bound, fast.quality_bound);

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.degraded_responses, 1);
  EXPECT_EQ(report.degraded_fallbacks, 1);
  EXPECT_EQ(report.faults_injected, 1);
}

TEST(ServeTiered, ForcedRejectionOnSubsetServesVerifiedCheapAnswer) {
  ServeFixture fx(30);
  ServiceOptions options;
  options.fault_plan = std::make_shared<FaultPlan>(OneVerifyRejection());
  auto service = fx.MakeService(options);

  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  for (int j = 0; j < fx.catalog().l(); j += 2) {
    request.facility_subset.push_back(j);
  }
  request.allow_degraded = true;
  const McfsInstance instance = fx.RequestInstance(request);
  ASSERT_TRUE(SolveWma(instance).ok());
  const SolveResponse degraded = service->SolveSync(request);
  ExpectVerifiedDegraded(instance, degraded);
  for (const int j : degraded.solution.selected) {
    EXPECT_TRUE(j >= 0 && j < instance.l()) << j;
  }
  EXPECT_EQ(service->Report().degraded_fallbacks, 1);
}

// Satellite regression: clients key "stop retrying" on the shutdown
// flag, not on retry_after_ms == 0 — a live service's hard queue-full
// rejection carries a positive hint and shutdown == false, while the
// shut-down rejection is the only one with shutdown == true.
TEST(ServeTiered, ShutdownFlagDistinguishesFutileFromRetryableRejection) {
  ServeFixture fx(28);

  {
    ServiceOptions options;
    options.queue_depth = 0;  // every admission is a hard queue-full
    auto service = fx.MakeService(options);
    SolveRequest request;
    request.customers = fx.catalog().customers;
    request.k = fx.catalog().k;
    const SolveResponse rejected = service->SolveSync(request);
    ASSERT_EQ(rejected.status.code(), StatusCode::kUnavailable);
    EXPECT_FALSE(rejected.shutdown);
    EXPECT_GE(rejected.retry_after_ms, 1);
  }

  auto service = fx.MakeService();
  service->Shutdown();
  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  const SolveResponse rejected = service->SolveSync(request);
  ASSERT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(rejected.shutdown);
  EXPECT_EQ(rejected.retry_after_ms, 0);
}

TEST(ServeTiered, ReportAndSnapshotCarryTieredSchema) {
  ServeFixture fx(29);
  auto service = fx.MakeService(SlowEstimateOptions());
  const SolveResponse fast = service->SolveSync(SlaRequest(fx));
  ASSERT_EQ(fast.tier, "fast");
  service->DrainRefinements();

  const std::string report = service->Report().Json();
  for (const char* key :
       {"\"tiered\"", "\"fast_responses\"", "\"fast_fallthroughs\"",
        "\"refines_enqueued\"", "\"refine_runs\"", "\"refine_upgrades\"",
        "\"refine_discards\"", "\"latency_by_tier\"", "\"fast\"",
        "\"full\"", "\"degraded\""}) {
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }

  const ServiceSnapshot snap = service->DebugSnapshot();
  EXPECT_GE(snap.fast, 1);
  EXPECT_GE(snap.upgrades, 1);
  EXPECT_EQ(snap.refine_backlog, 0);
  const std::string snap_json = snap.Json();
  for (const char* key :
       {"\"fast\"", "\"upgrades\"", "\"refine_backlog\""}) {
    EXPECT_NE(snap_json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace mcfs
