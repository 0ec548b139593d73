// Substrate bench: Contraction Hierarchies vs plain Dijkstra on a city
// network — preprocessing cost, shortcut count,
// per-query settled nodes, and many-to-many distance-table throughput
// (the access pattern behind dense-matrix construction for the exact
// solver and the greedy k-median baseline).

#include <algorithm>

#include "bench/bench_util.h"
#include "mcfs/common/timer.h"
#include "mcfs/graph/contraction_hierarchy.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/workload.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 0.05);
  bench_util::Banner("Substrate: CH vs Dijkstra point-to-point",
                     bench);

  const Graph city = GenerateCity(AalborgPreset(bench.scale, bench.seed));
  std::printf("city: n=%d, edges=%lld\n", city.NumNodes(),
              static_cast<long long>(city.NumEdges()));

  double ch_prep = 0.0;
  ScopedTimer ch_prep_timer(&ch_prep, "bench/ch_preprocess_seconds");
  const ContractionHierarchy ch(&city);
  ch_prep_timer.Stop();

  Rng rng(bench.seed + 1);

  const int queries = 200;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int q = 0; q < queries; ++q) {
    pairs.push_back(
        {static_cast<NodeId>(rng.UniformInt(0, city.NumNodes() - 1)),
         static_cast<NodeId>(rng.UniformInt(0, city.NumNodes() - 1))});
  }

  // Plain Dijkstra baseline (settles the whole component per query).
  double dijkstra_seconds = 0.0;
  double checksum_dijkstra = 0.0;
  {
    ScopedTimer t(&dijkstra_seconds, "bench/dijkstra_query_seconds");
    for (const auto& [s, t_node] : pairs) {
      const std::vector<double> dist = ShortestPathsFrom(city, s);
      if (dist[t_node] != kInfDistance) checksum_dijkstra += dist[t_node];
    }
  }

  double ch_seconds = 0.0;
  double checksum_ch = 0.0;
  int64_t ch_settled = 0;
  {
    ScopedTimer t(&ch_seconds, "bench/ch_query_seconds");
    for (const auto& [s, t_node] : pairs) {
      const double d = ch.Distance(s, t_node);
      if (d != kInfDistance) checksum_ch += d;
      ch_settled += ch.last_settled_count();
    }
  }

  MCFS_CHECK(std::abs(checksum_ch - checksum_dijkstra) <
             1e-6 * (1.0 + checksum_dijkstra))
      << "CH distances diverge from Dijkstra";

  Table table({"method", "preprocessing", "200 queries",
               "avg settled/query", "exact"});
  table.AddRow({"Dijkstra", "-", FmtSeconds(dijkstra_seconds),
                FmtInt(city.NumNodes()), "yes"});
  table.AddRow({"CH", FmtSeconds(ch_prep), FmtSeconds(ch_seconds),
                FmtInt(ch_settled / queries), "yes"});
  table.Print();
  std::printf("CH inserted %lld shortcuts (%.1f%% of original edges)\n",
              static_cast<long long>(ch.num_shortcuts()),
              100.0 * ch.num_shortcuts() / std::max<int64_t>(1, city.NumEdges()));

  // Many-to-many: 64 x 64 table, CH buckets vs repeated Dijkstra.
  const std::vector<NodeId> sources = SampleDistinctNodes(city, 64, rng);
  const std::vector<NodeId> targets = SampleDistinctNodes(city, 64, rng);
  double mtm_ch = 0.0;
  ScopedTimer mtm_ch_timer(&mtm_ch, "bench/ch_table_seconds");
  const std::vector<double> table_ch = ch.DistanceTable(sources, targets);
  mtm_ch_timer.Stop();
  double mtm_dijkstra = 0.0;
  double mtm_checksum = 0.0;
  {
    ScopedTimer t(&mtm_dijkstra, "bench/dijkstra_table_seconds");
    for (const NodeId s : sources) {
      const std::vector<double> dist = ShortestPathsFrom(city, s);
      for (const NodeId t_node : targets) {
        if (dist[t_node] != kInfDistance) mtm_checksum += dist[t_node];
      }
    }
  }
  double mtm_ch_checksum = 0.0;
  for (const double d : table_ch) {
    if (d != kInfDistance) mtm_ch_checksum += d;
  }
  MCFS_CHECK(std::abs(mtm_ch_checksum - mtm_checksum) <
             1e-6 * (1.0 + mtm_checksum));
  std::printf(
      "many-to-many 64x64: CH buckets %s vs per-source Dijkstra %s "
      "(%.1fx)\n",
      FmtSeconds(mtm_ch).c_str(), FmtSeconds(mtm_dijkstra).c_str(),
      mtm_dijkstra / std::max(mtm_ch, 1e-9));
  return 0;
}
