// A small CLI around the whole library: generate (or load) a road
// network, place customers and capacitated candidate facilities, solve
// with the algorithm of your choice, and optionally persist the network
// for later runs.
//
//   ./examples/city_planner --city=aalborg --scale=0.05 --m=256 --k=25 \
//       --algorithm=wma [--capacity=20] [--save=net.graph]
//   ./examples/city_planner --load=net.graph --m=128 --k=12 \
//       --algorithm=hilbert
//
// Algorithms: wma | uf | naive | hilbert | brnn | exact

#include <cstdio>
#include <string>

#include "mcfs/baselines/brnn.h"
#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/common/flags.h"
#include "mcfs/common/timer.h"
#include "mcfs/baselines/greedy_kmedian.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/graph/graph_io.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/workload.h"

namespace {

mcfs::CityOptions PresetFor(const std::string& name, double scale,
                            uint64_t seed) {
  if (name == "riga") return mcfs::RigaPreset(scale, seed);
  if (name == "copenhagen") return mcfs::CopenhagenPreset(scale, seed);
  if (name == "lasvegas") return mcfs::LasVegasPreset(scale, seed);
  return mcfs::AalborgPreset(scale, seed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  // Obtain the network.
  Graph city;
  const std::string load_path = flags.GetString("load", "");
  if (!load_path.empty()) {
    std::optional<Graph> loaded = LoadGraph(load_path);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "could not load %s\n", load_path.c_str());
      return 1;
    }
    city = std::move(*loaded);
    std::printf("loaded %s: %d nodes, %lld edges\n", load_path.c_str(),
                city.NumNodes(), static_cast<long long>(city.NumEdges()));
  } else {
    const CityOptions preset =
        PresetFor(flags.GetString("city", "aalborg"),
                  flags.GetDouble("scale", 0.05), seed);
    city = GenerateCity(preset);
    std::printf("%s (scaled): %d nodes, %lld edges, avg degree %.2f\n",
                preset.name.c_str(), city.NumNodes(),
                static_cast<long long>(city.NumEdges()),
                city.AverageDegree());
  }
  const std::string save_path = flags.GetString("save", "");
  if (!save_path.empty() && SaveGraph(city, save_path)) {
    std::printf("saved network to %s\n", save_path.c_str());
  }

  // Build the instance.
  Rng rng(seed + 1);
  McfsInstance instance;
  instance.graph = &city;
  const int m = static_cast<int>(flags.GetInt("m", 256));
  const int capacity = static_cast<int>(flags.GetInt("capacity", 20));
  instance.customers = SampleDistinctNodes(city, m, rng);
  instance.facility_nodes = SampleDistinctNodes(city, city.NumNodes(), rng);
  instance.capacities = UniformCapacities(city.NumNodes(), capacity);
  instance.k = static_cast<int>(flags.GetInt("k", std::max(1, m / 10)));
  std::printf("instance: m=%d, l=%d, k=%d, c=%d, occupancy=%.2f, %s\n",
              instance.m(), instance.l(), instance.k, capacity,
              instance.Occupancy(),
              IsFeasible(instance) ? "feasible" : "INFEASIBLE");

  // Solve.
  const std::string algorithm = flags.GetString("algorithm", "wma");
  WallTimer timer;
  McfsSolution solution;
  if (algorithm == "hilbert") {
    solution = RunHilbertBaseline(instance);
  } else if (algorithm == "brnn") {
    solution = RunBrnnBaseline(instance);
  } else if (algorithm == "uf") {
    solution = RunUniformFirstWma(instance).solution;
  } else if (algorithm == "kmedian") {
    solution = RunGreedyKMedian(instance);
  } else if (algorithm == "naive") {
    WmaOptions options;
    options.naive = true;
    solution = RunWma(instance, options).solution;
  } else if (algorithm == "exact") {
    ExactOptions options;
    options.time_limit_seconds = flags.GetDouble("exact_seconds", 60.0);
    const ExactResult exact = SolveExact(instance, options);
    if (exact.failed) {
      std::printf("exact solver exceeded its budget after %lld nodes\n",
                  static_cast<long long>(exact.nodes_explored));
    }
    solution = exact.solution;
  } else {
    solution = RunWma(instance).solution;
  }
  const double seconds = timer.Seconds();

  const ValidationResult validation =
      ValidateSolution(instance, solution, /*check_distances=*/false);
  std::printf("%s: objective %.0f m, %zu facilities, %s, %s, %.2f s\n",
              algorithm.c_str(), solution.objective,
              solution.selected.size(),
              solution.feasible ? "feasible" : "infeasible",
              validation.ok ? "valid" : validation.message.c_str(),
              seconds);
  return 0;
}
