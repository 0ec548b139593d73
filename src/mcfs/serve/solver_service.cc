#include "mcfs/serve/solver_service.h"

#include <algorithm>
#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "mcfs/common/check.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/repair.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/flow/fast_match.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"
#include "mcfs/serve/checkpoint.h"

namespace mcfs {

namespace {

double NowSeconds() { return static_cast<double>(obs::TraceNowUs()) * 1e-6; }

// Lowers the calling thread's CPU priority by `nice` (see
// ServiceOptions::background_nice). Raising niceness needs no
// privileges; errors are ignored — the setting is best-effort latency
// isolation, never correctness.
void ApplyBackgroundNice(int nice) {
  if (nice <= 0) return;
#ifdef __linux__
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), nice);
#endif
}

const char kDefaultTier[] = "default";

// Runs `fn` when the scope unwinds (in-flight bookkeeping on functions
// with several return points).
template <typename F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};
template <typename F>
ScopeExit<F> OnScopeExit(F fn) {
  return {std::move(fn)};
}

// objective / (capacity- and budget-relaxed lower bound), the quality
// bound of degraded and fast answers: the lower bound serves every
// customer at its nearest instance facility, read off `nearest` (a
// multi-source Dijkstra from instance.facility_nodes).
double NearestFacilityQualityBound(const McfsInstance& instance,
                                   double objective,
                                   const MultiSourceResult& nearest) {
  double lower = 0.0;
  for (const NodeId c : instance.customers) {
    const double d = nearest.distance[c];
    if (std::isfinite(d)) lower += d;
  }
  if (objective <= lower) return 1.0;
  // Degenerate: every customer co-located with a facility makes the
  // relaxed bound 0 while capacity overflow can still force a positive
  // objective. objective / 0 would be inf (JSON nulls it, comparisons
  // and SLO accounting misread it) — report the defined sentinel
  // instead, distinguishable from both real bounds (>= 1) and "no
  // bound computed" (0).
  if (lower <= 0.0) return kDegenerateQualityBound;
  return objective / lower;
}

// The cheap-answer step (DESIGN.md §4.14), the only cheap answer the
// service gives: the fast tier serves it, and so does rung 2 of the
// degradation ladder. Demand-ranked top-k slate over `nearest` — each
// facility scored by how many customers it is nearest to, ties by
// index — then component-coverage repair, the bounded-work greedy
// matcher and targeted verification. False when no verified feasible
// answer came out; otherwise `solution` and its `quality_bound`.
bool CheapAnswer(const McfsInstance& instance,
                 const MultiSourceResult& nearest, McfsSolution* solution,
                 double* quality_bound) {
  const int catalog = instance.l();
  const int budget = std::min(instance.k, catalog);
  std::vector<int64_t> demand(catalog, 0);
  for (const NodeId c : instance.customers) {
    const int f = nearest.nearest_index[c];
    if (f >= 0) demand[f]++;
  }
  std::vector<int> order(catalog);
  for (int j = 0; j < catalog; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (demand[a] != demand[b]) return demand[a] > demand[b];
    return a < b;
  });
  std::vector<int> selected(order.begin(), order.begin() + budget);
  if (!CoverComponents(instance, selected)) return false;
  const FastMatchResult match =
      FastGreedyMatch(*instance.graph, instance.customers,
                      instance.facility_nodes, instance.capacities, selected);
  if (!match.all_assigned) return false;
  McfsSolution answer;
  answer.selected = std::move(selected);
  answer.assignment = match.assignment;
  answer.distances = match.distances;
  answer.objective = match.total_cost;
  answer.feasible = true;
  answer.termination = Termination::kConverged;
  // Never served unchecked. The targeted strategy keeps the check
  // sub-millisecond: per-customer early-exit searches instead of one
  // full Dijkstra per facility.
  VerifyOptions targeted;
  targeted.targeted = true;
  if (!VerifySolution(instance, answer, targeted).ok) return false;
  *quality_bound =
      NearestFacilityQualityBound(instance, answer.objective, nearest);
  *solution = std::move(answer);
  return true;
}

}  // namespace

double UpdateEwma(std::atomic<double>& ewma, double sample) {
  // Compare-exchange loop: two completions landing together must both
  // take effect. The old load-then-store read-modify-write let one
  // overwrite the other, silently under-counting service time and
  // skewing the queue-delay shedding estimate under exactly the load
  // that makes shedding matter.
  double prev = ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev <= 0.0 ? sample : 0.8 * prev + 0.2 * sample;
  } while (!ewma.compare_exchange_weak(prev, next, std::memory_order_relaxed,
                                       std::memory_order_relaxed));
  return next;
}

// --------------------------------------------------------------------------
// ResponseHandle

const SolveResponse& ResponseHandle::Wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

bool ResponseHandle::WaitFor(int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (timeout_ms <= 0) return done_;
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return done_; });
}

bool ResponseHandle::Done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void ResponseHandle::Complete(SolveResponse response) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCFS_CHECK(!done_) << "response completed twice";
    response_ = std::move(response);
    done_ = true;
  }
  cv_.notify_all();
}

// --------------------------------------------------------------------------
// SolverService

bool SolverService::CacheKey::operator<(const CacheKey& other) const {
  return std::tie(k, matcher, customers, facility_subset) <
         std::tie(other.k, other.matcher, other.customers,
                  other.facility_subset);
}

SolverService::SolverService(const Graph* graph,
                             std::vector<NodeId> facility_nodes,
                             std::vector<int> capacities,
                             const ServiceOptions& options)
    : graph_(graph), options_(options) {
  MCFS_CHECK(graph_ != nullptr) << "SolverService needs a graph";
  MCFS_CHECK_EQ(facility_nodes.size(), capacities.size());
  effective_parallelism_ = std::max(
      1, std::min(options_.max_batch < 1 ? 1 : options_.max_batch,
                  ResolveThreadCount(options_.serve_threads)));
  if (options_.expected_solve_ms > 0.0) {
    ewma_service_seconds_.store(options_.expected_solve_ms * 1e-3,
                                std::memory_order_relaxed);
  }
  slo_states_.reserve(options_.slos.size());
  for (const SloPolicy& policy : options_.slos) {
    SloState state;
    state.policy = policy;
    if (state.policy.tier.empty()) state.policy.tier = kDefaultTier;
    slo_states_.push_back(std::move(state));
  }
  PublishWarmState(
      BuildWarmState(1, std::move(facility_nodes), std::move(capacities)));
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  refiner_ = std::thread([this] { RefinerLoop(); });
}

SolverService::~SolverService() { Shutdown(); }

std::shared_ptr<const SolverService::WarmState> SolverService::BuildWarmState(
    uint64_t epoch, std::vector<NodeId> facility_nodes,
    std::vector<int> capacities) const {
  MCFS_SPAN("serve/warm_build");
  WallTimer timer;
  auto state = std::make_shared<WarmState>();
  state->epoch = epoch;
  state->facility_nodes = std::move(facility_nodes);
  state->capacities = std::move(capacities);
  // The catalog is service configuration, validated once here (requests
  // get graceful Status errors; a broken catalog is a deployment bug).
  MCFS_CHECK_EQ(state->facility_nodes.size(), state->capacities.size());
  const int num_nodes = graph_->NumNodes();
  state->facility_index_of_node.assign(num_nodes, -1);
  for (size_t j = 0; j < state->facility_nodes.size(); ++j) {
    const NodeId node = state->facility_nodes[j];
    MCFS_CHECK(node >= 0 && node < num_nodes)
        << "catalog facility " << j << " at node " << node << " out of range";
    MCFS_CHECK(state->facility_index_of_node[node] < 0)
        << "catalog facility node " << node << " appears twice";
    state->facility_index_of_node[node] = static_cast<int>(j);
    MCFS_CHECK_GE(state->capacities[j], 0)
        << "catalog facility " << j << " has negative capacity";
  }
  // The O(V + E) component scan every cold ValidateInstance pays, done
  // once per epoch.
  state->components = ConnectedComponents(*graph_);
  // Nearest catalog facility per node (DESIGN.md §4.14): one
  // multi-source Dijkstra per epoch buys the instant responder its
  // selection signal and the quality-bound denominator without any
  // per-request graph work.
  state->nearest_facility =
      MultiSourceDijkstra(*graph_, state->facility_nodes);
  state->build_seconds = timer.Seconds();
  MCFS_COUNT("serve/epoch_rebuilds", 1);
  MCFS_OBSERVE("serve/warm_build_seconds", state->build_seconds);
  return state;
}

void SolverService::PublishWarmState(std::shared_ptr<const WarmState> state) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cache_epoch_ != state->epoch) {
      cache_.clear();
      cache_order_.clear();
      cache_epoch_ = state->epoch;
    }
  }
  const double build_seconds = state->build_seconds;
  const uint64_t epoch = state->epoch;
  {
    // A swap: the previous epoch is released after the lock, so readers
    // (the fast tier included) never wait behind its destruction.
    std::lock_guard<std::mutex> lock(state_mutex_);
    warm_state_.swap(state);
  }
  MCFS_RECORD("serve/epoch_swap", static_cast<int64_t>(epoch), 0);
  std::lock_guard<std::mutex> lock(report_mutex_);
  stats_.epochs_built++;
  stats_.warm_build_seconds += build_seconds;
}

std::shared_ptr<const SolverService::WarmState>
SolverService::SnapshotWarmState() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return warm_state_;
}

int SolverService::MarkDirty(const std::vector<uint8_t>& stream_dirty,
                             const std::vector<uint8_t>& match_dirty) {
  const size_t size = std::max(stream_dirty.size(), match_dirty.size());
  if (resolve_.stream_dirty.size() < size) {
    resolve_.stream_dirty.resize(size, 0);
    resolve_.match_dirty.resize(size, 0);
  }
  int newly = 0;
  for (size_t g = 0; g < size; ++g) {
    if (g < stream_dirty.size() && stream_dirty[g] != 0 &&
        resolve_.stream_dirty[g] == 0) {
      resolve_.stream_dirty[g] = 1;
      ++newly;
    }
    if (g < match_dirty.size() && match_dirty[g] != 0 &&
        resolve_.match_dirty[g] == 0) {
      resolve_.match_dirty[g] = 1;
      ++newly;
    }
  }
  if (newly > 0) {
    MCFS_COUNT("resolve/components_dirtied", newly);
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.resolve_components_dirtied += newly;
  }
  return newly;
}

void SolverService::ClearDirtyLocked() {
  std::fill(resolve_.stream_dirty.begin(), resolve_.stream_dirty.end(), 0);
  std::fill(resolve_.match_dirty.begin(), resolve_.match_dirty.end(), 0);
}

void SolverService::AdoptTrackedLocked(std::vector<NodeId> tracked) {
  tracked_customers_ = std::move(tracked);
  tracked_count_.store(static_cast<int64_t>(tracked_customers_.size()),
                       std::memory_order_relaxed);
}

UpdateResult SolverService::CommitUpdateLocked(
    const WarmState& warm, std::vector<NodeId> facility_nodes,
    std::vector<int> capacities, std::vector<NodeId> tracked,
    const std::vector<uint8_t>& stream_dirty,
    const std::vector<uint8_t>& match_dirty, int ops_applied) {
  UpdateResult out;
  out.ops_applied = ops_applied;
  out.epoch = warm.epoch;
  const bool catalog_changed = facility_nodes != warm.facility_nodes ||
                               capacities != warm.capacities;
  if (!catalog_changed && tracked == tracked_customers_) {
    // No-op delta: the state is already exactly this. Keep the epoch —
    // and with it the response cache and the warm-resolve seed.
    out.noop = true;
    MCFS_COUNT("resolve/noop_updates", 1);
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.resolve_noop_updates++;
    stats_.resolve_ops_applied += ops_applied;
    return out;
  }
  out.components_dirtied = MarkDirty(stream_dirty, match_dirty);
  if (catalog_changed) {
    out.epoch_bumped = true;
    out.epoch = warm.epoch + 1;
    PublishWarmState(BuildWarmState(out.epoch, std::move(facility_nodes),
                                    std::move(capacities)));
  }
  AdoptTrackedLocked(std::move(tracked));
  std::lock_guard<std::mutex> lock(report_mutex_);
  stats_.resolve_updates++;
  stats_.resolve_ops_applied += ops_applied;
  return out;
}

Status SolverService::UpdateCapacities(std::vector<int> capacities) {
  // Serialized read-validate-build-publish: two concurrent updates must
  // not read the same epoch and publish twins. resolve_mutex_ is taken
  // second (the service-wide lock order) so the dirty bits and the warm
  // state move together.
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  if (capacities.size() != warm->facility_nodes.size()) {
    return InvalidInputError(
        "capacity vector has " + std::to_string(capacities.size()) +
        " entries for a catalog of " +
        std::to_string(warm->facility_nodes.size()));
  }
  return ReplaceCatalogLocked(*warm, warm->facility_nodes,
                              std::move(capacities));
}

Status SolverService::UpdateCandidates(std::vector<NodeId> facility_nodes,
                                       std::vector<int> capacities) {
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  return ReplaceCatalogLocked(*SnapshotWarmState(), std::move(facility_nodes),
                              std::move(capacities));
}

Status SolverService::ReplaceCatalogLocked(const WarmState& warm,
                                           std::vector<NodeId> facility_nodes,
                                           std::vector<int> capacities) {
  if (facility_nodes.size() != capacities.size()) {
    return InvalidInputError(
        "catalog has " + std::to_string(facility_nodes.size()) +
        " facility nodes but " + std::to_string(capacities.size()) +
        " capacities");
  }
  const int num_nodes = graph_->NumNodes();
  std::vector<int> index_of_node(num_nodes, -1);
  // Added candidates invalidate their component's discovery prefixes
  // (the new facility can appear mid-prefix) and matches; capacity
  // increases on persisting nodes invalidate matches only (decreases
  // only shed overflow, which the resume handles in place).
  std::vector<uint8_t> stream_dirty(warm.components.num_components, 0);
  std::vector<uint8_t> match_dirty(warm.components.num_components, 0);
  for (size_t j = 0; j < facility_nodes.size(); ++j) {
    const NodeId node = facility_nodes[j];
    if (node < 0 || node >= num_nodes) {
      return InvalidInputError("facility node " + std::to_string(node) +
                               " out of range (facility " + std::to_string(j) +
                               ")");
    }
    if (index_of_node[node] >= 0) {
      // Same shape as DiagnoseInstance's duplicate diagnosis.
      return InvalidInputError("duplicate facility node " +
                               std::to_string(node) + " (facility " +
                               std::to_string(j) + ")");
    }
    index_of_node[node] = static_cast<int>(j);
    if (capacities[j] < 0) {
      return InvalidInputError("negative capacity " +
                               std::to_string(capacities[j]) + " (facility " +
                               std::to_string(j) + ")");
    }
    const int old_index = warm.facility_index_of_node[node];
    const int g = warm.components.component_of[node];
    if (old_index < 0) {
      stream_dirty[g] = 1;
      match_dirty[g] = 1;
    } else if (capacities[j] > warm.capacities[old_index]) {
      match_dirty[g] = 1;
    }
  }
  CommitUpdateLocked(warm, std::move(facility_nodes), std::move(capacities),
                     tracked_customers_, stream_dirty, match_dirty, 0);
  return OkStatus();
}

StatusOr<UpdateResult> SolverService::ApplyUpdate(
    const UpdateRequest& update) {
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  const int num_nodes = graph_->NumNodes();

  // Working copies: every op validates against (and mutates) these, and
  // nothing is committed until all ops passed — all-or-nothing.
  std::vector<NodeId> nodes = warm->facility_nodes;
  std::vector<int> caps = warm->capacities;
  std::vector<int> index_of_node = warm->facility_index_of_node;
  std::vector<NodeId> tracked = tracked_customers_;
  std::vector<uint8_t> stream_dirty(warm->components.num_components, 0);
  std::vector<uint8_t> match_dirty(warm->components.num_components, 0);

  for (size_t op_index = 0; op_index < update.ops.size(); ++op_index) {
    const UpdateOp& op = update.ops[op_index];
    auto op_error = [op_index](const std::string& message) {
      return InvalidInputError("update op " + std::to_string(op_index) +
                               ": " + message);
    };
    if (op.node < 0 || op.node >= num_nodes) {
      return op_error("node " + std::to_string(op.node) +
                      " out of range [0, " + std::to_string(num_nodes) + ")");
    }
    const int g = warm->components.component_of[op.node];
    switch (op.kind) {
      case UpdateKind::kCapacityDelta: {
        const int j = index_of_node[op.node];
        if (j < 0) {
          return op_error("capacity delta on node " +
                          std::to_string(op.node) +
                          " which holds no candidate facility");
        }
        const int next = caps[j] + op.capacity_delta;
        if (next < 0) {
          return op_error("capacity of the facility at node " +
                          std::to_string(op.node) + " would drop to " +
                          std::to_string(next));
        }
        if (op.capacity_delta > 0) match_dirty[g] = 1;
        caps[j] = next;
        break;
      }
      case UpdateKind::kCandidateAdd: {
        if (index_of_node[op.node] >= 0) {
          // Same shape as DiagnoseInstance's duplicate diagnosis.
          return op_error("duplicate facility node " +
                          std::to_string(op.node) + " (facility " +
                          std::to_string(index_of_node[op.node]) + ")");
        }
        if (op.capacity_delta < 0) {
          return op_error("negative capacity " +
                          std::to_string(op.capacity_delta) +
                          " for the candidate added at node " +
                          std::to_string(op.node));
        }
        index_of_node[op.node] = static_cast<int>(nodes.size());
        nodes.push_back(op.node);
        caps.push_back(op.capacity_delta);
        stream_dirty[g] = 1;
        match_dirty[g] = 1;
        break;
      }
      case UpdateKind::kCandidateRemove: {
        const int j = index_of_node[op.node];
        if (j < 0) {
          return op_error("no candidate facility at node " +
                          std::to_string(op.node) + " to remove");
        }
        // Swap-remove; the catalog order changes, which is fine — the
        // catalog defines itself and warm seeds are node-keyed.
        index_of_node[op.node] = -1;
        const int last = static_cast<int>(nodes.size()) - 1;
        if (j != last) {
          nodes[j] = nodes[last];
          caps[j] = caps[last];
          index_of_node[nodes[j]] = j;
        }
        nodes.pop_back();
        caps.pop_back();
        break;
      }
      case UpdateKind::kCustomerArrive: {
        tracked.push_back(op.node);
        break;
      }
      case UpdateKind::kCustomerDepart: {
        bool found = false;
        for (size_t i = tracked.size(); i-- > 0;) {
          if (tracked[i] == op.node) {
            tracked.erase(tracked.begin() + static_cast<int64_t>(i));
            found = true;
            break;
          }
        }
        if (!found) {
          return op_error("no tracked customer at node " +
                          std::to_string(op.node) + " to depart");
        }
        break;
      }
    }
  }

  MCFS_COUNT("resolve/deltas_classified",
             static_cast<int64_t>(update.ops.size()));
  return CommitUpdateLocked(*warm, std::move(nodes), std::move(caps),
                            std::move(tracked), stream_dirty, match_dirty,
                            static_cast<int>(update.ops.size()));
}

uint64_t SolverService::epoch() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return warm_state_->epoch;
}

McfsInstance SolverService::TrackedInstance(int k) const {
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  return TrackedInstanceLocked(*SnapshotWarmState(), k);
}

McfsInstance SolverService::TrackedInstanceLocked(const WarmState& warm,
                                                  int k) const {
  McfsInstance instance;
  instance.graph = graph_;
  instance.customers = tracked_customers_;
  instance.facility_nodes = warm.facility_nodes;
  instance.capacities = warm.capacities;
  instance.k = k;
  return instance;
}

size_t SolverService::tracked_customer_count() const {
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  return tracked_customers_.size();
}

SolveResponse SolverService::ResolveTracked(int k, int64_t deadline_ms,
                                            bool force_cold) {
  const uint64_t trace_id = obs::NewTraceId();
  obs::ScopedTraceContext trace_scope(trace_id);
  MCFS_SPAN("resolve/tracked");
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    in_flight_.push_back(trace_id);
  }
  auto in_flight_guard = OnScopeExit([this, trace_id] {
    std::lock_guard<std::mutex> lock(report_mutex_);
    EraseInFlightLocked(trace_id);
  });
  // Held for the whole solve: the seed, the dirty bits, and the tracked
  // population must not move under a resolve, and concurrent resolves
  // would race on the exported seed. Updates queue behind (lock order:
  // update_mutex_ -> resolve_mutex_, and we take only the latter).
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();

  SolveResponse response;
  response.epoch = warm->epoch;
  response.trace_id = trace_id;
  const McfsInstance instance = TrackedInstanceLocked(*warm, k);
  if (!ValidatePrelude(*warm, instance, &response)) {
    // Invalid or infeasible for this k: report the canonical diagnosis
    // and keep the seed — a later delta can restore validity. An empty
    // population leaves nothing to resume from next time.
    if (response.status.code() == StatusCode::kInfeasible) {
      RecordPostmortem("infeasible", trace_id, warm->epoch);
    }
    if (response.status.ok()) resolve_.seed.reset();
    return response;
  }

  // The engine stays unresolved here: the auto model also weighs the
  // warm seed, which a request shape does not know about.
  WmaOptions wma =
      WmaOptionsFor(deadline_ms, nullptr, trace_id, options_.wma.matcher);
  wma.export_warm_seed = true;

  const bool warm_started = !force_cold && !wma.naive &&
                            resolve_.seed != nullptr && resolve_.seed_k == k &&
                            !resolve_.seed->trajectory.customers.empty();
  if (warm_started) {
    wma.warm_seed = resolve_.seed;
    // Expand the per-component dirty bits into per-seed-customer
    // invalidation masks (the narrowing that makes repairs cheap: clean
    // components resume wholesale).
    const std::vector<WarmSeedCustomer>& seeded =
        resolve_.seed->trajectory.customers;
    wma.warm_stream_invalid.assign(seeded.size(), 0);
    wma.warm_match_invalid.assign(seeded.size(), 0);
    for (size_t s = 0; s < seeded.size(); ++s) {
      const int g = warm->components.component_of[seeded[s].node];
      if (g < static_cast<int>(resolve_.stream_dirty.size()) &&
          resolve_.stream_dirty[g] != 0) {
        wma.warm_stream_invalid[s] = 1;
      }
      if (g < static_cast<int>(resolve_.match_dirty.size()) &&
          resolve_.match_dirty[g] != 0) {
        wma.warm_match_invalid[s] = 1;
      }
    }
  }

  WallTimer solve_timer;
  WmaResult result = RunWma(instance, wma);
  response.solve_seconds = solve_timer.Seconds();

  bool fell_back_cold = false;
  if (warm_started) {
    // Safety net: every warm-started solve is verified independently,
    // whatever options_.verify says. A bad verdict falls back to cold.
    const VerifyReport verdict = VerifySolution(instance, result.solution);
    response.verify_ran = true;
    if (options_.fault_plan != nullptr &&
        options_.fault_plan->ShouldFire(FaultKind::kVerifyReject)) {
      // Read the verdict as a rejection so the whole failure path —
      // postmortem capture + cold fallback — runs deterministically. The
      // response stays correct.
      MCFS_RECORD("serve/fault_verify_reject", static_cast<int64_t>(trace_id),
                  0);
      std::lock_guard<std::mutex> lock(report_mutex_);
      stats_.faults_injected++;
      response.verify_ok = false;
    } else {
      response.verify_ok = verdict.ok;
    }
    if (!response.verify_ok) {
      MCFS_COUNT("resolve/verify_rejections", 1);
      {
        std::lock_guard<std::mutex> lock(report_mutex_);
        stats_.resolve_verify_rejections++;
      }
      RecordPostmortem("verify_rejection", trace_id, warm->epoch);
      WmaOptions cold =
          WmaOptionsFor(deadline_ms, nullptr, trace_id, options_.wma.matcher);
      cold.export_warm_seed = true;
      WallTimer cold_timer;
      result = RunWma(instance, cold);
      response.solve_seconds += cold_timer.Seconds();
      const VerifyReport cold_verdict =
          VerifySolution(instance, result.solution);
      response.verify_ok = cold_verdict.ok;
      fell_back_cold = true;
    }
  } else if (options_.verify) {
    const VerifyReport verdict = VerifySolution(instance, result.solution);
    response.verify_ran = true;
    response.verify_ok = verdict.ok;
  }

  if (result.solution.termination == Termination::kDeadline) {
    // A deadline-cut tracked resolve hands back an anytime solution the
    // next epoch builds on — exactly the situation a postmortem's recent
    // phase history explains.
    RecordPostmortem("warm_deadline", trace_id, warm->epoch);
  }

  response.solution = std::move(result.solution);
  response.stats = std::move(result.stats);

  // The exported end-of-run state seeds the next resolve; the deltas it
  // saw are now baked in, so the dirty bits reset.
  resolve_.seed = std::move(result.warm_seed);
  resolve_.seed_k = k;
  ClearDirtyLocked();

  const bool counted_warm = warm_started && !fell_back_cold;
  response.warm_attempted = warm_started;
  response.warm_served = counted_warm;
  if (counted_warm) {
    MCFS_COUNT("resolve/warm_repairs", 1);
  } else {
    MCFS_COUNT("resolve/cold_fallbacks", 1);
  }
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    if (counted_warm) {
      stats_.resolves_warm++;
      stats_.resolve_warm_seconds += response.solve_seconds;
    } else {
      stats_.resolves_cold++;
      stats_.resolve_cold_seconds += response.solve_seconds;
    }
    stats_.warm_customers_reused += response.stats.warm_customers_reused;
    stats_.warm_customers_repaired += response.stats.warm_customers_repaired;
  }
  return response;
}

Status SolverService::CheckpointTo(const std::string& path) {
  MCFS_SPAN("serve/checkpoint_save");
  // Lock order: update -> resolve. The catalog, tracked population, and
  // seed move together; serving continues around the snapshot.
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kCheckpointIo)) {
    MCFS_RECORD("serve/fault_checkpoint_io", 0, 0);
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.checkpoint_failures++;
    stats_.faults_injected++;
    return IoError("fault-injected checkpoint write failure: " + path);
  }
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  ServiceCheckpoint checkpoint;
  checkpoint.epoch = warm->epoch;
  checkpoint.facility_nodes = warm->facility_nodes;
  checkpoint.capacities = warm->capacities;
  checkpoint.tracked_customers = tracked_customers_;
  // The seed travels only when its dirty bits are all clean: a dirty
  // seed needs the invalidation masks to repair safely, and those are
  // transient in-process state. A restore without the seed is just a
  // cold first resolve — correct, only slower.
  const auto clean = [](const std::vector<uint8_t>& bits) {
    return std::all_of(bits.begin(), bits.end(),
                       [](uint8_t b) { return b == 0; });
  };
  if (resolve_.seed != nullptr && clean(resolve_.stream_dirty) &&
      clean(resolve_.match_dirty)) {
    checkpoint.has_seed = true;
    checkpoint.seed_k = resolve_.seed_k;
    checkpoint.seed = *resolve_.seed;
  }
  const Status status = WriteServiceCheckpoint(checkpoint, path);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    if (status.ok()) {
      stats_.checkpoints_saved++;
    } else {
      stats_.checkpoint_failures++;
    }
  }
  if (status.ok()) MCFS_COUNT("serve/checkpoints_saved", 1);
  return status;
}

Status SolverService::RestoreFrom(const std::string& path) {
  MCFS_SPAN("serve/checkpoint_restore");
  std::lock_guard<std::mutex> update_lock(update_mutex_);
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  const auto fail = [this](Status status) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.checkpoint_failures++;
    return status;
  };
  StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(path);
  if (!loaded.ok()) return fail(loaded.status());
  ServiceCheckpoint checkpoint = std::move(loaded).value();
  // Validate against the live graph before touching any state: a
  // checkpoint from a different network is corruption from this
  // service's point of view, and BuildWarmState would CHECK-crash on it.
  const int num_nodes = graph_->NumNodes();
  std::vector<uint8_t> seen(static_cast<size_t>(num_nodes), 0);
  for (size_t j = 0; j < checkpoint.facility_nodes.size(); ++j) {
    const NodeId node = checkpoint.facility_nodes[j];
    if (node < 0 || node >= num_nodes) {
      return fail(IoError("checkpoint does not match the service graph: "
                          "facility node " +
                          std::to_string(node) + " out of range [0, " +
                          std::to_string(num_nodes) + ")"));
    }
    if (seen[node] != 0) {
      return fail(IoError(
          "corrupted checkpoint: duplicate facility node " +
          std::to_string(node)));
    }
    seen[node] = 1;
    if (checkpoint.capacities[j] < 0) {
      return fail(IoError("corrupted checkpoint: negative capacity " +
                          std::to_string(checkpoint.capacities[j]) +
                          " (facility " + std::to_string(j) + ")"));
    }
  }
  // Node ids from the file index the live graph (ResolveTracked reads
  // component_of[] with the seed's customer nodes).
  std::string out_of_range;
  const auto check_node = [&](const char* what, NodeId node) {
    if (out_of_range.empty() && (node < 0 || node >= num_nodes)) {
      out_of_range = std::string(what) + " node " + std::to_string(node) +
                     " out of range [0, " + std::to_string(num_nodes) + ")";
    }
  };
  for (const NodeId node : checkpoint.tracked_customers) {
    check_node("tracked customer", node);
  }
  if (checkpoint.has_seed) {
    for (const WarmSeed* seed :
         {&checkpoint.seed.trajectory, &checkpoint.seed.final_assign}) {
      for (const WarmSeedCustomer& customer : seed->customers) {
        check_node("seed customer", customer.node);
        for (const WarmSeedEdge& edge : customer.edges) {
          check_node("seed edge facility", edge.facility_node);
        }
        for (const WarmSeedEdge& edge : customer.buffered) {
          check_node("seed edge facility", edge.facility_node);
        }
      }
      for (const NodeId node : seed->facility_nodes) {
        check_node("seed facility", node);
      }
    }
  }
  if (!out_of_range.empty()) {
    return fail(IoError("checkpoint does not match the service graph: " +
                        out_of_range));
  }
  // Commit: republish the warm state at the checkpointed epoch (epoch
  // continuity across restart), adopt population + seed, clear the
  // dirty bits (the checkpointed seed is clean by construction) and the
  // response cache. Intended as a startup-time operation — concurrent
  // in-flight requests finish under the snapshot they admitted with.
  PublishWarmState(BuildWarmState(checkpoint.epoch,
                                  std::move(checkpoint.facility_nodes),
                                  std::move(checkpoint.capacities)));
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    cache_order_.clear();
    cache_epoch_ = checkpoint.epoch;
  }
  AdoptTrackedLocked(std::move(checkpoint.tracked_customers));
  resolve_.seed =
      checkpoint.has_seed
          ? std::make_shared<WmaWarmSeed>(std::move(checkpoint.seed))
          : nullptr;
  resolve_.seed_k = checkpoint.seed_k;
  ClearDirtyLocked();
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.checkpoints_restored++;
  }
  MCFS_COUNT("serve/checkpoints_restored", 1);
  return OkStatus();
}

int64_t SolverService::RetryAfterMs(size_t queue_len) const {
  const double ewma = ewma_service_seconds_.load(std::memory_order_relaxed);
  const double drain_ms = static_cast<double>(queue_len) * ewma * 1000.0 /
                          static_cast<double>(effective_parallelism_);
  return std::max<int64_t>(1, std::llround(drain_ms * 0.5));
}

std::shared_ptr<ResponseHandle> SolverService::Submit(SolveRequest request) {
  auto handle = std::make_shared<ResponseHandle>();
  // Trace identity is assigned at admission so even a rejected request
  // has a joinable id in spans / flight events / the response.
  if (request.trace_id == 0) request.trace_id = obs::NewTraceId();
  // Both queue admissions (on arrival, and after a fast-tier
  // fallthrough) refuse through `queue_refuses` and `refuse`.
  SolveResponse refusal;
  refusal.trace_id = request.trace_id;
  bool shed = false;         // admission-time overload shed
  bool fault_fired = false;  // the shed was a fault-injected pulse
  const auto queue_refuses = [&] {  // queue_mutex_ held
    const char* reason = nullptr;
    if (stop_) {
      // No retry hint: retrying a shut-down service cannot succeed. The
      // one rejection retrying can never outwait (DESIGN.md §4.14):
      // clients key "stop retrying" on this flag, not on
      // retry_after_ms == 0 — a live-but-idle service also hints 0.
      reason = "service is shut down";
      refusal.shutdown = true;
    } else if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
      reason = "admission queue full";
      refusal.retry_after_ms = RetryAfterMs(queue_.size());
    }
    if (reason != nullptr) {
      refusal.status = UnavailableError(
          std::string(reason) + " (queue_depth = " +
          std::to_string(options_.queue_depth) + ")");
    }
    return reason != nullptr;
  };
  const auto refuse = [&] {
    if (shed) {
      MCFS_COUNT("serve/requests_shed", 1);
    } else {
      MCFS_COUNT("serve/requests_rejected", 1);
    }
    {
      std::lock_guard<std::mutex> lock(report_mutex_);
      if (shed) {
        stats_.requests_shed++;
      } else {
        stats_.requests_rejected++;
      }
      if (fault_fired) stats_.faults_injected++;
    }
    handle->Complete(std::move(refusal));
    return handle;
  };
  bool fast_path = false;  // answer inline via the instant responder
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    fault_fired =
        !queue_refuses() && options_.fault_plan != nullptr &&
        options_.fault_plan->ShouldFire(FaultKind::kQueuePulse);
    if (fault_fired) {
      shed = true;
      refusal.retry_after_ms = RetryAfterMs(queue_.size() + 1);
      refusal.status = UnavailableError("fault-injected queue-overflow pulse");
    } else if (refusal.status.ok()) {
      const double ewma =
          ewma_service_seconds_.load(std::memory_order_relaxed);
      // Tight-SLA admission (DESIGN.md §4.14): when the estimated queue
      // drain plus one full solve cannot fit the request's latency
      // budget — or the estimator is still blind — the request is
      // answered inline by the instant responder instead of queuing
      // behind full-solve batches (the wait alone would blow the SLA).
      // Checked before shedding: an SLA request the queue would starve
      // is exactly what the fast tier exists for.
      if (request.max_latency_ms > 0) {
        const double est_ms =
            ewma * 1000.0 *
            (1.0 + static_cast<double>(queue_.size()) /
                       static_cast<double>(effective_parallelism_));
        fast_path = ewma <= 0.0 ||
                    est_ms > static_cast<double>(request.max_latency_ms);
      }
      // Queue-delay-aware shedding (DESIGN.md §4.13): when the work
      // already waiting is estimated to outlast this request's own
      // deadline, admitting it only burns a queue slot on a response
      // that will arrive dead. Reject now, with a drain-time hint.
      const int64_t deadline_ms = request.deadline_ms > 0
                                      ? request.deadline_ms
                                      : options_.default_deadline_ms;
      if (!fast_path && deadline_ms > 0 && ewma > 0.0 && !queue_.empty()) {
        const double est_wait_ms =
            static_cast<double>(queue_.size()) * ewma * 1000.0 /
            static_cast<double>(effective_parallelism_);
        if (est_wait_ms > static_cast<double>(deadline_ms)) {
          shed = true;
          refusal.retry_after_ms = RetryAfterMs(queue_.size());
          refusal.status = UnavailableError(
              "estimated queue wait " +
              std::to_string(std::llround(est_wait_ms)) +
              " ms exceeds the request deadline " +
              std::to_string(deadline_ms) + " ms");
        }
      }
      if (!fast_path && !shed) {
        queue_.push_back({std::move(request), handle, NowSeconds()});
      }
    }
  }
  if (!refusal.status.ok()) return refuse();
  MCFS_COUNT("serve/requests_admitted", 1);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.requests_admitted++;
  }
  if (fast_path) {
    // Instant responder (DESIGN.md §4.14), inline on the submitting
    // thread: the queue is the latency the SLA cannot afford.
    PendingRequest pending{std::move(request), handle, NowSeconds()};
    if (FastServe(pending)) return handle;
    // The fast attempt could not produce a verified feasible answer;
    // fall through to the queued full solve (fidelity over the SLA). The
    // queue is re-checked — admission raced other submitters meanwhile.
    MCFS_COUNT("serve/fast_fallthroughs", 1);
    {
      std::lock_guard<std::mutex> lock(report_mutex_);
      stats_.fast_fallthroughs++;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!queue_refuses()) queue_.push_back(std::move(pending));
    }
    if (!refusal.status.ok()) return refuse();
  }
  queue_cv_.notify_one();
  return handle;
}

SolveResponse SolverService::SolveSync(SolveRequest request) {
  return Submit(std::move(request))->Wait();
}

void SolverService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The refiner stops only after the dispatcher drained: queued full
  // solves can still plant upgrades, and every fast answer's promised
  // refinement runs before the service goes dark (drain-on-shutdown,
  // same contract as the admission queue).
  {
    std::lock_guard<std::mutex> lock(refine_mutex_);
    refine_stop_ = true;
  }
  refine_cv_.notify_all();
  if (refiner_.joinable()) refiner_.join();
}

void SolverService::DispatcherLoop() {
  ApplyBackgroundNice(options_.background_nice);
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain-on-shutdown: exit only once the queue is empty, so every
      // admitted request still gets a response.
      if (queue_.empty()) return;
      const int take = std::min<int>(options_.max_batch < 1
                                         ? 1
                                         : options_.max_batch,
                                     static_cast<int>(queue_.size()));
      batch.reserve(take);
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    MCFS_SPAN("serve/batch");
    MCFS_COUNT("serve/batches", 1);
    const int n = static_cast<int>(batch.size());
    MCFS_OBSERVE("serve/batch_size", static_cast<double>(n));
    {
      std::lock_guard<std::mutex> lock(report_mutex_);
      stats_.batches++;
      stats_.max_batch_size = std::max(stats_.max_batch_size, n);
    }
    if (n == 1) {
      Execute(batch[0]);
    } else {
      // One batch = one ParallelFor on the shared pool: requests in the
      // batch run concurrently up to serve_threads, and the solvers'
      // nested parallel sections degrade to inline serial inside the
      // region — which is exactly what keeps responses bit-identical to
      // direct SolveWma calls (the determinism contract).
      ParallelFor(
          0, n, 1, [&](int64_t i) { Execute(batch[i]); },
          options_.serve_threads);
    }
  }
}

SolverService::RequestView SolverService::ViewOf(
    const SolveRequest& request) const {
  RequestView view;
  view.warm = SnapshotWarmState();
  const WarmState& warm = *view.warm;
  view.deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                             : options_.default_deadline_ms;
  view.cacheable = options_.cache_capacity > 0 && view.deadline_ms == 0 &&
                   request.cancel == nullptr;
  // The response must be bit-identical to SolveWma on exactly this
  // instance.
  McfsInstance& instance = view.instance;
  instance.graph = graph_;
  instance.customers = request.customers;
  instance.k = request.k;
  const int catalog_size = static_cast<int>(warm.facility_nodes.size());
  if (request.facility_subset.empty()) {
    instance.facility_nodes = warm.facility_nodes;
    instance.capacities = warm.capacities;
  } else {
    instance.facility_nodes.reserve(request.facility_subset.size());
    instance.capacities.reserve(request.facility_subset.size());
    for (const int idx : request.facility_subset) {
      if (idx < 0 || idx >= catalog_size) {
        // A service-level defect: the subset indexes the catalog, a
        // concept SolveWma never sees, so this error is the service's own.
        view.status = InvalidInputError(
            "facility subset index out of range [0, " +
            std::to_string(catalog_size) + ")");
        return view;
      }
      instance.facility_nodes.push_back(warm.facility_nodes[idx]);
      instance.capacities.push_back(warm.capacities[idx]);
    }
  }
  // Resolve the engine for this request's shape once: the same resolved
  // kind keys the response cache and runs the solve, so an auto-picked
  // engine never serves a cache entry another engine produced.
  MatchShape shape;
  shape.customers = static_cast<int64_t>(instance.m());
  shape.facilities = static_cast<int64_t>(instance.l());
  for (const int c : instance.capacities) shape.total_capacity += c;
  view.matcher = ResolveMatcherBackend(options_.wma.matcher, shape);
  view.key = CacheKey{request.customers, request.k, request.facility_subset,
                      view.matcher};
  return view;
}

bool SolverService::ValidatePrelude(const WarmState& warm,
                                    const McfsInstance& instance,
                                    SolveResponse* response) const {
  WallTimer preprocess_timer;
  // SolveWma's own validation over the epoch's component labeling: the
  // same function, so the same verdict and Status bytes, without the
  // O(V + E) component scan.
  response->status = DiagnoseInstance(instance, &warm.components).status;
  response->preprocess_seconds = preprocess_timer.Seconds();
  if (!response->status.ok()) return false;
  if (instance.m() == 0) {
    // SolveWma's trivial shortcut, replicated exactly.
    response->solution.feasible = true;
    return false;
  }
  return true;
}

WmaOptions SolverService::WmaOptionsFor(int64_t deadline_ms,
                                        const CancelToken* cancel,
                                        uint64_t trace_id,
                                        MatcherBackendKind matcher) const {
  WmaOptions wma = options_.wma;
  wma.deadline_ms = deadline_ms;
  wma.cancel = cancel;
  wma.trace_id = trace_id;
  wma.matcher = matcher;
  return wma;
}

const SolverService::CacheEntry* SolverService::FindLocked(
    const CacheKey& key, uint64_t epoch) const {
  if (cache_epoch_ != epoch) return nullptr;
  const auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : &it->second;
}

bool SolverService::LookupCache(const RequestView& view,
                                std::unique_lock<std::mutex> lock,
                                SolveResponse* response) const {
  const CacheEntry* entry =
      lock.owns_lock() ? FindLocked(view.key, view.warm->epoch) : nullptr;
  if (entry != nullptr) {
    response->solution = entry->solution;
    response->stats = entry->stats;
    response->verify_ran = entry->verify_ran;
    response->verify_ok = entry->verify_ok;
    // Hits carry the tier of the entry they hit: an upgraded-in-place
    // entry serves "full" (bound cleared), a still-awaiting-refinement
    // entry serves "fast" with its recorded bound.
    response->tier = entry->tier;
    response->quality_bound = entry->quality_bound;
    response->cache_hit = true;
  }
  // Released here: a by-value parameter may live until the end of the
  // caller's full expression.
  if (lock.owns_lock()) lock.unlock();
  return entry != nullptr;
}

bool SolverService::InsertLocked(const CacheKey& key, CacheEntry& entry,
                                 uint64_t epoch) {
  if (cache_epoch_ != epoch) return false;
  // try_emplace leaves `entry` intact when the key is taken, so an
  // upgrade can still move from it.
  if (!cache_.try_emplace(key, std::move(entry)).second) return false;
  cache_order_.push_back(key);
  while (static_cast<int>(cache_.size()) > options_.cache_capacity) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  return true;
}

bool SolverService::UpgradeLocked(const CacheKey& key, uint64_t epoch,
                                  CacheEntry& full) {
  // FindLocked is const for ProbeCache; the entry itself is mutable here.
  CacheEntry* entry = const_cast<CacheEntry*>(FindLocked(key, epoch));
  if (entry == nullptr || entry->tier != "fast") return false;
  // Same key, same epoch; the trace id of the planting fast answer is
  // kept — the converged entry is that request's continuation.
  const uint64_t planting_trace = entry->trace_id;
  *entry = std::move(full);
  entry->trace_id = planting_trace;
  return true;
}

void SolverService::NoteUpgrade(uint64_t trace_id, uint64_t epoch) {
  MCFS_COUNT("serve/tier_upgrades", 1);
  MCFS_RECORD("serve/cache_upgrade", static_cast<int64_t>(trace_id),
              static_cast<int64_t>(epoch));
  std::lock_guard<std::mutex> lock(report_mutex_);
  stats_.refine_upgrades++;
}

void SolverService::EraseInFlightLocked(uint64_t trace_id) {
  const auto it = std::find(in_flight_.begin(), in_flight_.end(), trace_id);
  if (it != in_flight_.end()) in_flight_.erase(it);
}

void SolverService::Execute(PendingRequest& pending) {
  const SolveRequest& request = pending.request;
  // The trace context is installed before anything measurable happens:
  // every span, flight event, and histogram exemplar below — including
  // from the batch's ParallelFor workers, which inherit the id — joins
  // back to this request, whichever batch or worker served it.
  obs::ScopedTraceContext trace_scope(request.trace_id);
  MCFS_SPAN("serve/request");
  MCFS_RECORD("serve/request_begin",
              static_cast<int64_t>(request.customers.size()), request.k);
  // Erased by FinishRequest (every exit path runs it) *before* the
  // handle completes, so a waiter never observes its own finished
  // request as in flight.
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    in_flight_.push_back(request.trace_id);
  }
  const RequestView view = ViewOf(request);
  const WarmState& warm = *view.warm;
  const McfsInstance& instance = view.instance;

  SolveResponse response;
  response.epoch = warm.epoch;
  response.trace_id = request.trace_id;
  response.queue_seconds = NowSeconds() - pending.admitted_at;
  response.status = view.status;
  // Completion happens outside cache_mutex_ (LookupCache releases it):
  // FinishRequest fulfills the handle, and a woken client can preempt
  // this thread — holding the lock through that wake convoys every
  // concurrent lookup behind a descheduled holder.
  if (!response.status.ok() ||
      (view.cacheable &&
       LookupCache(view, std::unique_lock<std::mutex>(cache_mutex_),
                   &response)) ||
      !ValidatePrelude(warm, instance, &response)) {
    FinishRequest(pending, std::move(response));
    return;
  }

  WmaOptions wma = WmaOptionsFor(view.deadline_ms, request.cancel,
                                 request.trace_id, view.matcher);
  bool fault_deadline = false;
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kDeadlineCut)) {
    // Deterministic mid-solve expiry at a solver checkpoint — the
    // generalized AfterPolls hook. The solve degrades to its anytime
    // answer exactly as a real wall-clock deadline would.
    fault_deadline = true;
    wma.deadline_ms = 0;
    wma.deadline = Deadline::AfterPolls(2);
    MCFS_RECORD("serve/fault_deadline_cut",
                static_cast<int64_t>(request.trace_id), 0);
  }
  WallTimer solve_timer;
  WmaResult result = RunWma(instance, wma);
  response.solve_seconds = solve_timer.Seconds();
  response.solution = std::move(result.solution);
  response.stats = std::move(result.stats);

  if (response.solution.termination == Termination::kDeadline) {
    MCFS_COUNT("serve/deadline_terminations", 1);
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.deadline_terminations++;
  }

  bool injected_reject = false;
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kVerifyReject)) {
    // Treat the verdict below as a rejection (the solution itself is
    // fine) so the rejection machinery — postmortem capture, degraded
    // fallback — runs deterministically.
    injected_reject = true;
    MCFS_RECORD("serve/fault_verify_reject",
                static_cast<int64_t>(request.trace_id), 0);
  }
  if (fault_deadline || injected_reject) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.faults_injected +=
        (fault_deadline ? 1 : 0) + (injected_reject ? 1 : 0);
  }
  // Degraded-opted deadline-cut answers are verified too: the anytime
  // solution only serves (as tier=degraded) once the independent
  // verifier blesses it.
  const bool verify_degrade_candidate =
      request.allow_degraded &&
      response.solution.termination == Termination::kDeadline;
  if (options_.verify || injected_reject || verify_degrade_candidate) {
    const VerifyReport verdict = VerifySolution(instance, response.solution);
    response.verify_ran = true;
    response.verify_ok = verdict.ok && !injected_reject;
  }

  if (request.allow_degraded &&
      ((response.verify_ran && !response.verify_ok) ||
       response.solution.termination == Termination::kDeadline)) {
    DegradeResponse(view, response.verify_ran && !response.verify_ok,
                    &response);
  }

  if (view.cacheable && response.tier == "full" &&
      response.solution.termination == Termination::kConverged) {
    // Built outside the lock: this thread may be running at
    // background_nice, and a preemption inside cache_mutex_ would
    // convoy the inline fast tier behind a starved holder.
    CacheEntry entry{response.solution, response.stats, response.verify_ran,
                     response.verify_ok, "full", 0.0, request.trace_id};
    bool overtook_fast = false;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      // A queued full solve on the same identity can overtake the
      // background refinement of a fast entry: it upgrades in place now,
      // and the refiner will find the entry converged and discard.
      overtook_fast = !InsertLocked(view.key, entry, warm.epoch) &&
                      UpgradeLocked(view.key, warm.epoch, entry);
    }
    if (overtook_fast) NoteUpgrade(request.trace_id, warm.epoch);
  }

  FinishRequest(pending, std::move(response));
}

void SolverService::DegradeResponse(const RequestView& view, bool rejected,
                                    SolveResponse* response) {
  MCFS_SPAN("serve/degrade");
  const McfsInstance& instance = view.instance;
  const uint64_t epoch_at = view.warm->epoch;
  // Full-catalog requests reuse the epoch's nearest-facility pass; a
  // subset pays one multi-source Dijkstra over its slice, which serves
  // both the rung-2 slate and the bound.
  MultiSourceResult subset_nearest;
  if (!view.key.facility_subset.empty()) {
    subset_nearest = MultiSourceDijkstra(*graph_, instance.facility_nodes);
  }
  const MultiSourceResult& nearest = view.key.facility_subset.empty()
                                         ? view.warm->nearest_facility
                                         : subset_nearest;
  // Rung 1: the anytime best-so-far answer, which the caller already
  // ran through the independent verifier — unless that verdict (or an
  // injected rejection) marked it untrusted wholesale.
  bool synthesized = false;
  if (rejected || !response->solution.feasible) {
    // Rung 2: the cheap-answer step, verified before it serves.
    WallTimer fallback_timer;
    McfsSolution fallback;
    const bool answered =
        CheapAnswer(instance, nearest, &fallback, &response->quality_bound);
    response->solve_seconds += fallback_timer.Seconds();
    if (!answered) {
      // Ladder exhausted: fail closed with a typed status.
      response->status =
          UnavailableError("degraded fallback failed verification");
      response->verify_ran = true;
      response->verify_ok = false;
      RecordPostmortem("degraded_exhausted", response->trace_id, epoch_at);
      return;
    }
    // Keep the primary attempt's failure marker: a synthesized answer
    // never claims the convergence it replaced.
    fallback.termination = response->solution.termination;
    response->solution = std::move(fallback);
    synthesized = true;
  } else {
    response->quality_bound = NearestFacilityQualityBound(
        instance, response->solution.objective, nearest);
  }
  response->tier = "degraded";
  response->verify_ran = true;
  response->verify_ok = true;
  RecordPostmortem(
      rejected ? "degraded_verify_rejection" : "degraded_deadline",
      response->trace_id, epoch_at);
  MCFS_COUNT("serve/degraded_responses", 1);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.degraded_responses++;
    if (synthesized) stats_.degraded_fallbacks++;
  }
}

bool SolverService::FastServe(PendingRequest& pending) {
  const SolveRequest& request = pending.request;
  obs::ScopedTraceContext trace_scope(request.trace_id);
  MCFS_SPAN("serve/fast");
  MCFS_RECORD("serve/fast_begin",
              static_cast<int64_t>(request.customers.size()), request.k);
  // The instant responder must never block behind a background thread
  // that was descheduled inside a critical section (a nice'd dispatcher
  // holding a lock can starve for a full scheduler round — priority
  // inversion that lands straight in the fast tier's p99). Every lock
  // this path takes before its latency is recorded is therefore a
  // try-lock, and contention skips the optional work: the in-flight
  // marker is diagnostic, a skipped cache lookup is a cache miss, and a
  // skipped plant just means a later occurrence plants instead. The one
  // exception is the epoch snapshot: state_mutex_ guards only a
  // shared_ptr copy or swap.
  {
    std::unique_lock<std::mutex> lock(report_mutex_, std::try_to_lock);
    if (lock.owns_lock()) in_flight_.push_back(request.trace_id);
  }
  // Fallthrough exits bypass FinishRequest, so they retire the
  // in-flight marker themselves before handing the request to the queue
  // (whose full solve, not this attempt, then carries the latency).
  auto fall_through = [&] {
    std::lock_guard<std::mutex> lock(report_mutex_);
    EraseInFlightLocked(request.trace_id);
    return false;
  };

  // The instant responder leans on the epoch's precomputed
  // nearest-facility distances; a catalog subset would need its own
  // multi-source Dijkstra — no longer instant — so subset requests take
  // the full path.
  if (!request.facility_subset.empty()) return fall_through();

  const RequestView view = ViewOf(request);
  const WarmState& warm = *view.warm;
  const McfsInstance& instance = view.instance;

  SolveResponse response;
  response.epoch = warm.epoch;
  response.trace_id = request.trace_id;
  response.queue_seconds = NowSeconds() - pending.admitted_at;
  // try-lock: a contended cache is treated as a miss rather than a wait —
  // recomputing a 0.5ms fast answer beats blocking behind a possibly-
  // descheduled background holder. An invalid instance is definitive:
  // the full path would reject with the same canonical status.
  if ((view.cacheable &&
       LookupCache(view,
                   std::unique_lock<std::mutex>(cache_mutex_, std::try_to_lock),
                   &response)) ||
      !ValidatePrelude(warm, instance, &response)) {
    FinishRequest(pending, std::move(response));
    return true;
  }

  // The cheap-answer step over the epoch's nearest map. A fast answer
  // that cannot be proven feasible is not served fast, it is solved for
  // real.
  WallTimer solve_timer;
  McfsSolution solution;
  if (!CheapAnswer(instance, warm.nearest_facility, &solution,
                   &response.quality_bound)) {
    return fall_through();
  }
  response.solve_seconds = solve_timer.Seconds();
  response.verify_ran = true;
  response.verify_ok = true;
  response.tier = "fast";
  response.solution = std::move(solution);

  // Plant the cache entry at tier "fast" together with its background
  // refinement (same key, same epoch, same trace id), both under
  // try-locks: a present fast entry always has a refinement coming, and
  // losing either lock only defers caching and refinement to the
  // identity's next occurrence. refine == false answers are final and
  // never cached, mirroring degraded answers. The entry is built (the
  // solution copied) before any lock is taken.
  if (view.cacheable && request.refine) {
    CacheEntry planted{response.solution, response.stats, true, true,
                       "fast", response.quality_bound, request.trace_id};
    std::unique_lock<std::mutex> refine_lock(refine_mutex_, std::try_to_lock);
    std::unique_lock<std::mutex> cache_lock(cache_mutex_, std::defer_lock);
    if (refine_lock.owns_lock() && !refine_stop_ && cache_lock.try_lock() &&
        InsertLocked(view.key, planted, warm.epoch)) {
      cache_lock.unlock();
      // Dedup by (key, epoch): N identical fast answers need one
      // refinement. (Planting required an empty slot, so a duplicate
      // here means a racing eviction + re-plant.)
      const bool duplicate = std::any_of(
          refine_queue_.begin(), refine_queue_.end(),
          [&](const RefineTask& task) {
            return task.epoch == warm.epoch && !(task.key < view.key) &&
                   !(view.key < task.key);
          });
      if (!duplicate) {
        refine_queue_.push_back(
            RefineTask{view.key, warm.epoch, request.trace_id});
        pending.refine_enqueued = true;
      }
    }
    if (pending.refine_enqueued) {
      refine_lock.unlock();
      refine_cv_.notify_one();
      MCFS_COUNT("serve/refines_enqueued", 1);
    }
  }
  MCFS_COUNT("serve/tier_fast", 1);
  FinishRequest(pending, std::move(response));
  return true;
}

void SolverService::RefinerLoop() {
  ApplyBackgroundNice(options_.background_nice);
  for (;;) {
    RefineTask task;
    {
      std::unique_lock<std::mutex> lock(refine_mutex_);
      refine_cv_.wait(
          lock, [this] { return refine_stop_ || !refine_queue_.empty(); });
      // Drain-on-shutdown: every fast answer's promised refinement runs.
      if (refine_queue_.empty()) return;
      task = std::move(refine_queue_.front());
      refine_queue_.pop_front();
      // Covers the pop-to-completion window so DrainRefinements has no
      // gap to race through ("queue empty" alone is not "idle").
      refine_active_ = true;
    }
    RunRefinement(task);
    {
      std::lock_guard<std::mutex> lock(refine_mutex_);
      refine_active_ = false;
    }
    refine_cv_.notify_all();
  }
}

void SolverService::RunRefinement(const RefineTask& task) {
  // Same trace id as the fast answer it refines: spans, flight events,
  // and the upgraded entry all join back to the original request.
  obs::ScopedTraceContext trace_scope(task.trace_id);
  MCFS_SPAN("serve/refine");
  const auto discard = [&] {
    MCFS_COUNT("serve/refine_discards", 1);
    MCFS_RECORD("serve/refine_discard", static_cast<int64_t>(task.trace_id),
                static_cast<int64_t>(task.epoch));
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.refine_discards++;
  };
  // The request the fast answer served (fast plants are full-catalog by
  // construction), viewed under the current epoch.
  SolveRequest request;
  request.customers = task.key.customers;
  request.k = task.key.k;
  const RequestView view = ViewOf(request);
  if (view.warm->epoch != task.epoch) {
    // The catalog moved on; the entry this refinement would upgrade was
    // invalidated with its epoch. Solving against the new catalog would
    // answer a different question.
    discard();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const CacheEntry* entry = FindLocked(task.key, task.epoch);
    if (entry == nullptr || entry->tier != "fast") {
      // Evicted, invalidated, or a queued full solve already overtook
      // the upgrade — nothing left to refine.
      discard();
      return;
    }
  }
  // Run the solve the SLA preempted, converged and deadline-free.
  WallTimer solve_timer;
  WmaResult result = RunWma(
      view.instance, WmaOptionsFor(0, nullptr, task.trace_id, view.matcher));
  // Fast completions are excluded from the admission estimator;
  // refinements are where the fast tier teaches it what the full solve
  // it displaced actually costs.
  UpdateEwma(ewma_service_seconds_, solve_timer.Seconds());
  MCFS_COUNT("serve/refine_runs", 1);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.refine_runs++;
  }
  if (!result.solution.feasible ||
      result.solution.termination != Termination::kConverged) {
    // Only converged answers upgrade a cache entry (the same condition
    // Execute's insert enforces). The fast answer stays served.
    discard();
    return;
  }
  CacheEntry refined{{}, std::move(result.stats), false, false, "full", 0.0,
                     task.trace_id};
  if (options_.verify) {
    refined.verify_ran = true;
    refined.verify_ok = VerifySolution(view.instance, result.solution).ok;
  }
  refined.solution = std::move(result.solution);
  bool upgraded = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    upgraded = UpgradeLocked(task.key, task.epoch, refined);
  }
  if (upgraded) {
    NoteUpgrade(task.trace_id, task.epoch);
  } else {
    discard();
  }
}

void SolverService::DrainRefinements() {
  std::unique_lock<std::mutex> lock(refine_mutex_);
  refine_cv_.wait(
      lock, [this] { return refine_queue_.empty() && !refine_active_; });
}

CacheProbe SolverService::ProbeCache(const SolveRequest& request) const {
  CacheProbe probe;
  // Same key derivation as Execute: the shape-resolved engine is part
  // of the identity. An out-of-range subset is never cached.
  const RequestView view = ViewOf(request);
  if (!view.status.ok()) return probe;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const CacheEntry* entry = FindLocked(view.key, cache_epoch_);
  if (entry == nullptr) return probe;
  probe.present = true;
  probe.tier = entry->tier;
  probe.epoch = cache_epoch_;
  probe.trace_id = entry->trace_id;
  probe.quality_bound = entry->quality_bound;
  probe.verify_ok = entry->verify_ok;
  return probe;
}

void SolverService::FinishRequest(PendingRequest& pending,
                                  SolveResponse response) {
  const double latency = NowSeconds() - pending.admitted_at;
  // Teach the admission-time overload control what a *full* request
  // costs (EWMA of the execution phases; queue wait excluded — it is
  // the quantity being estimated). Fast-tier completions are excluded:
  // their sub-millisecond samples would teach the estimator that full
  // solves are cheap, flip the next SLA decision to the queue, miss it,
  // and oscillate — background refinements feed the full-solve estimate
  // instead (RunRefinement). Cache hits are excluded too: they report
  // near-zero preprocess+solve time, and a burst of hits would collapse
  // the estimate until every SLA request believed the full path fit its
  // budget. The CAS loop in UpdateEwma keeps concurrent completions
  // from losing each other's updates.
  if (response.tier != "fast" && !response.cache_hit) {
    UpdateEwma(ewma_service_seconds_,
               response.preprocess_seconds + response.solve_seconds);
  }
  response.trace_id = pending.request.trace_id;
  MCFS_OBSERVE("serve/queue_seconds", response.queue_seconds);
  MCFS_OBSERVE("serve/solve_seconds", response.solve_seconds);
  MCFS_OBSERVE("serve/latency_seconds", latency);
  // The report's quantiles come from here. Execute installed this
  // request's trace context, so the bucket exemplar is its trace id.
  latency_hist_.Observe(latency);
  // Per-tier split (DESIGN.md §4.14), served responses only — the tier
  // of a rejection is meaningless and would pollute the comparison.
  if (response.status.ok()) {
    if (response.tier == "fast") {
      latency_fast_hist_.Observe(latency);
    } else if (response.tier == "degraded") {
      latency_degraded_hist_.Observe(latency);
    } else {
      latency_full_hist_.Observe(latency);
    }
  }
  MCFS_RECORD("serve/request_end",
              static_cast<int64_t>(response.trace_id),
              static_cast<int64_t>(response.status.code()));
  if (response.status.code() == StatusCode::kInfeasible) {
    RecordPostmortem("infeasible", response.trace_id, response.epoch);
  }
  if (response.status.ok()) {
    MCFS_COUNT("serve/requests_completed", 1);
  } else {
    MCFS_COUNT("serve/requests_failed", 1);
  }
  const std::string tier =
      pending.request.tier.empty() ? std::string(kDefaultTier)
                                   : pending.request.tier;
  if (response.cache_hit) MCFS_COUNT("serve/cache_hits", 1);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    EraseInFlightLocked(response.trace_id);
    stats_.requests_completed++;
    if (pending.refine_enqueued) stats_.refines_enqueued++;
    if (!response.status.ok()) stats_.requests_failed++;
    if (response.status.ok() && response.tier == "fast") {
      stats_.fast_responses++;
    }
    stats_.queue_seconds_total += response.queue_seconds;
    stats_.preprocess_seconds_total += response.preprocess_seconds;
    stats_.solve_seconds_total += response.solve_seconds;
    if (response.cache_hit) stats_.cache_hits++;
    latency_samples_.push_back(latency);
    for (SloState& slo : slo_states_) {
      if (slo.policy.tier != tier) continue;
      slo.requests++;
      if (slo.policy.target_latency_ms > 0.0 &&
          latency * 1000.0 > slo.policy.target_latency_ms) {
        slo.violations++;
        slo.last_violation_trace_id = response.trace_id;
      }
      break;
    }
  }
  pending.handle->Complete(std::move(response));
}

std::vector<SloReport> SolverService::SloRowsLocked() const {
  std::vector<SloReport> rows;
  rows.reserve(slo_states_.size());
  for (const SloState& state : slo_states_) {
    SloReport row;
    row.tier = state.policy.tier;
    row.target_latency_ms = state.policy.target_latency_ms;
    row.error_budget = state.policy.error_budget;
    row.requests = state.requests;
    row.violations = state.violations;
    const double budget =
        state.policy.error_budget * static_cast<double>(state.requests);
    row.burn =
        budget > 0.0 ? static_cast<double>(state.violations) / budget : 0.0;
    row.last_violation_trace_id = state.last_violation_trace_id;
    rows.push_back(std::move(row));
  }
  return rows;
}

ServiceReport SolverService::Report() const {
  ServiceReport report;
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    report = stats_;
    report.slos = SloRowsLocked();
  }
  report.epoch = epoch();
  report.matcher_backend = MatcherBackendName(options_.wma.matcher);
  report.latency = SummarizeHistogram(latency_hist_.Snapshot());
  report.latency_fast = SummarizeHistogram(latency_fast_hist_.Snapshot());
  report.latency_full = SummarizeHistogram(latency_full_hist_.Snapshot());
  report.latency_degraded =
      SummarizeHistogram(latency_degraded_hist_.Snapshot());
  return report;
}

ServiceSnapshot SolverService::DebugSnapshot() const {
  ServiceSnapshot snap;
  snap.t_us = obs::TraceNowUs();
  snap.epoch = epoch();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    snap.queue_depth = static_cast<int>(queue_.size());
  }
  snap.queue_capacity = options_.queue_depth;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    snap.cache_size = static_cast<int>(cache_.size());
  }
  snap.cache_capacity = options_.cache_capacity;
  {
    std::lock_guard<std::mutex> lock(refine_mutex_);
    snap.refine_backlog = static_cast<int>(refine_queue_.size()) +
                          (refine_active_ ? 1 : 0);
  }
  // Relaxed mirror, not resolve_mutex_: a snapshot must never block
  // behind a long ResolveTracked (that is the moment operators need it).
  snap.tracked_customers = tracked_count_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    snap.in_flight = in_flight_;
    snap.slos = SloRowsLocked();
    snap.postmortems = stats_.postmortems;
    snap.degraded = stats_.degraded_responses;
    snap.shed = stats_.requests_shed;
    snap.checkpoints = stats_.checkpoints_saved + stats_.checkpoints_restored;
    snap.fast = stats_.fast_responses;
    snap.upgrades = stats_.refine_upgrades;
  }
  snap.latency = SummarizeHistogram(latency_hist_.Snapshot());
  return snap;
}

void SolverService::RecordPostmortem(const char* reason, uint64_t trace_id,
                                     uint64_t epoch_at) {
  // Collect events BEFORE counting, so the dump describes the failure,
  // not the dump machinery.
  std::ostringstream out;
  out << "{\"reason\": \"" << obs::JsonEscape(reason) << "\""
      << ", \"trace_id\": " << trace_id << ", \"epoch\": " << epoch_at
      << ", \"t_us\": " << obs::TraceNowUs() << ", \"events\": "
      << obs::FlightEventsJson(options_.postmortem_events) << "}";
  std::string json = out.str();
  MCFS_COUNT("serve/postmortems", 1);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    stats_.postmortems++;
    last_postmortem_ = json;
  }
  if (!options_.postmortem_path.empty()) {
    std::ofstream file(options_.postmortem_path);
    if (file.is_open()) file << json << "\n";
  }
}

std::string SolverService::DumpPostmortem(const std::string& reason) {
  RecordPostmortem(reason.c_str(), obs::CurrentTraceId(), epoch());
  return LastPostmortem();
}

std::string SolverService::LastPostmortem() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return last_postmortem_;
}

std::vector<double> SolverService::LatencySamplesForTesting() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return latency_samples_;
}

std::string ServiceSnapshot::Json() const {
  std::ostringstream out;
  out << "{\"epoch\": " << epoch << ", \"t_us\": " << t_us
      << ", \"queue\": {\"depth\": " << queue_depth
      << ", \"capacity\": " << queue_capacity << "}"
      << ", \"cache\": {\"size\": " << cache_size
      << ", \"capacity\": " << cache_capacity << "}"
      << ", \"tracked_customers\": " << tracked_customers
      << ", \"in_flight\": [";
  for (size_t i = 0; i < in_flight.size(); ++i) {
    if (i > 0) out << ", ";
    out << in_flight[i];
  }
  out << "], \"latency_seconds\": " << LatencySummaryJson(latency)
      << ", \"slo\": " << SloReportsJson(slos)
      << ", \"postmortems\": " << postmortems
      << ", \"degraded\": " << degraded << ", \"shed\": " << shed
      << ", \"checkpoints\": " << checkpoints << ", \"fast\": " << fast
      << ", \"upgrades\": " << upgrades
      << ", \"refine_backlog\": " << refine_backlog << "}";
  return out.str();
}

}  // namespace mcfs
