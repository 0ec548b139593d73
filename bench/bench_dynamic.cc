// Extension bench: dynamic customer reallocation — the workload the
// paper's introduction motivates ("the problem may need to be solved
// repeatedly... depending on which customers declare interest").
// Simulates a stream of customer arrivals/departures on a city network
// and compares:
//   * fresh    — a fresh WMA selection at every event;
//   * service  — SolverService: each event is one kCustomerArrive or
//                kCustomerDepart op followed by ResolveTracked(k), which
//                repairs the previous event's matching from its warm
//                seed (verifier-guarded, cold on a rejection);
// reporting total time, warm-served and cold resolve counts, and the
// average objective ratio versus the always-fresh reference. Exits 1
// when any event's response is not OK and verifier-clean.

#include <algorithm>
#include <iterator>

#include "bench/bench_util.h"
#include "mcfs/common/timer.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/workload.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 0.04);
  bench_util::Banner("Extension: dynamic customer reallocation", bench);

  const Graph city = GenerateCity(AalborgPreset(bench.scale, bench.seed));
  Rng rng(bench.seed + 1);
  const int l = std::min(city.NumNodes() / 8, 300);
  const std::vector<NodeId> facilities = SampleDistinctNodes(city, l, rng);
  const std::vector<int> capacities = UniformCapacities(l, 10);
  const int k = l / 4;
  const int events = static_cast<int>(flags.GetInt("events", 60));
  std::printf("city n=%d, l=%d candidates, k=%d, %d events\n",
              city.NumNodes(), l, k, events);

  // Pre-generate the event stream so both strategies see the same one:
  // arrivals carry their node, departures the node of the customer that
  // leaves.
  struct Event {
    bool arrival;
    NodeId node;
  };
  std::vector<Event> stream;
  {
    std::vector<NodeId> active;
    Rng removal(bench.seed + 2);
    for (int e = 0; e < events; ++e) {
      const bool arrival = e < 20 || rng.NextDouble() < 0.65;
      const NodeId node =
          static_cast<NodeId>(rng.UniformInt(0, city.NumNodes() - 1));
      if (arrival || active.empty()) {
        active.push_back(node);
        stream.push_back({true, node});
      } else {
        const size_t pick = removal.UniformInt(0, active.size() - 1);
        stream.push_back({false, active[pick]});
        active.erase(active.begin() + pick);
      }
    }
  }

  // --- service strategy ---
  ServiceOptions options;
  options.wma.matcher = bench.matcher;
  options.verify = true;
  SolverService service(&city, facilities, capacities, options);
  std::vector<double> service_objectives;
  int warm_served = 0;
  int bad_events = 0;
  WallTimer timer;
  for (size_t e = 0; e < stream.size(); ++e) {
    UpdateRequest update;
    update.ops.push_back({stream[e].arrival ? UpdateKind::kCustomerArrive
                                            : UpdateKind::kCustomerDepart,
                          stream[e].node, 0});
    const StatusOr<UpdateResult> applied = service.ApplyUpdate(update);
    const SolveResponse response = service.ResolveTracked(k);
    if (!applied.ok() || !response.status.ok() || !response.verify_ran ||
        !response.verify_ok) {
      ++bad_events;
      std::printf("event %zu: update %s, resolve %s, verify_ran=%d ok=%d\n",
                  e, applied.status().ToString().c_str(),
                  response.status.ToString().c_str(),
                  response.verify_ran ? 1 : 0, response.verify_ok ? 1 : 0);
    }
    if (response.warm_served) ++warm_served;
    service_objectives.push_back(response.solution.objective);
  }
  const double service_seconds = timer.Seconds();

  // --- always-fresh reference ---
  std::vector<NodeId> active;
  std::vector<double> fresh_objectives;
  timer.Restart();
  for (const Event& event : stream) {
    if (event.arrival) {
      active.push_back(event.node);
    } else {
      // The service departs the latest customer on the node; so does
      // the reference, which keeps both instances identical.
      active.erase(
          std::prev(std::find(active.rbegin(), active.rend(), event.node)
                        .base()));
    }
    McfsInstance instance;
    instance.graph = &city;
    instance.customers = active;
    instance.facility_nodes = facilities;
    instance.capacities = capacities;
    instance.k = k;
    fresh_objectives.push_back(RunWma(instance).solution.objective);
  }
  const double fresh_seconds = timer.Seconds();

  double ratio_sum = 0.0;
  int ratio_count = 0;
  for (size_t e = 0; e < fresh_objectives.size(); ++e) {
    if (fresh_objectives[e] > 0.0) {
      ratio_sum += service_objectives[e] / fresh_objectives[e];
      ++ratio_count;
    }
  }
  const double ratio = ratio_count ? ratio_sum / ratio_count : 1.0;

  Table table({"strategy", "total time", "warm-served", "cold",
               "avg objective vs fresh"});
  table.AddRow({"fresh WMA each event", FmtSeconds(fresh_seconds), "0",
                FmtInt(events), "1.00x"});
  table.AddRow({"SolverService ResolveTracked", FmtSeconds(service_seconds),
                FmtInt(warm_served), FmtInt(events - warm_served),
                FmtDouble(ratio, 3) + "x"});
  table.Print();
  std::printf("speedup: %.1fx with %.1f%% average objective overhead\n",
              fresh_seconds / std::max(service_seconds, 1e-9),
              100.0 * (ratio - 1.0));
  if (bad_events > 0) {
    std::printf("%d event(s) not OK and verifier-clean\n", bad_events);
    return 1;
  }
  return 0;
}
