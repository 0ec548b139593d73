#include "mcfs/graph/facility_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::RandomGraph;

class FacilityStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(FacilityStreamTest, StreamsFacilitiesInSortedDistanceOrder) {
  Rng rng(800 + GetParam());
  const int n = 10 + static_cast<int>(rng.UniformInt(0, 60));
  const Graph graph = RandomGraph(n, n, rng);
  const int l = 1 + static_cast<int>(rng.UniformInt(0, n / 2));
  std::vector<int> facility_index_of_node(n, -1);
  const std::vector<int> facility_nodes =
      rng.SampleWithoutReplacement(n, l);
  for (int j = 0; j < l; ++j) {
    facility_index_of_node[facility_nodes[j]] = j;
  }
  const NodeId customer = static_cast<NodeId>(rng.UniformInt(0, n - 1));
  const std::vector<double> dist = ShortestPathsFrom(graph, customer);

  // Oracle: facilities sorted by true distance.
  std::vector<double> expected;
  for (const int node : facility_nodes) {
    if (dist[node] != kInfDistance) expected.push_back(dist[node]);
  }
  std::sort(expected.begin(), expected.end());

  NearestFacilityStream stream(&graph, customer, &facility_index_of_node);
  std::set<int> seen;
  for (const double want : expected) {
    EXPECT_NEAR(stream.PeekDistance(), want, 1e-9);
    const auto got = stream.Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(got->distance, want, 1e-9);
    EXPECT_NEAR(dist[facility_nodes[got->facility]], got->distance, 1e-9);
    EXPECT_TRUE(seen.insert(got->facility).second) << "duplicate facility";
  }
  EXPECT_TRUE(stream.Exhausted());
  EXPECT_FALSE(stream.Pop().has_value());
  EXPECT_EQ(stream.num_popped(), static_cast<int>(expected.size()));
}

void ExpectSameSeed(const StreamSeed& a, const StreamSeed& b) {
  ASSERT_EQ(a.buffered.size(), b.buffered.size());
  for (size_t i = 0; i < a.buffered.size(); ++i) {
    EXPECT_EQ(a.buffered[i].facility, b.buffered[i].facility);
    EXPECT_EQ(a.buffered[i].distance, b.buffered[i].distance);
  }
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.has_next, b.has_next);
  if (a.has_next && b.has_next) {
    EXPECT_EQ(a.next_distance, b.next_distance);
  }
}

// The warm-seed export describes what the consumer demanded, not what
// prefetching ran ahead to: a stream prefetched at random points exports
// the same seed after every Peek/Pop as a stream never prefetched — cold,
// and again when both resume from that seed.
TEST_P(FacilityStreamTest, LogicalSeedIgnoresPrefetch) {
  Rng rng(900 + GetParam());
  const int n = 20 + static_cast<int>(rng.UniformInt(0, 60));
  const Graph graph = RandomGraph(n, n, rng);
  const int l = 2 + static_cast<int>(rng.UniformInt(0, n / 2));
  std::vector<int> facility_index_of_node(n, -1);
  const std::vector<int> facility_nodes = rng.SampleWithoutReplacement(n, l);
  for (int j = 0; j < l; ++j) facility_index_of_node[facility_nodes[j]] = j;
  const NodeId customer = static_cast<NodeId>(rng.UniformInt(0, n - 1));

  const auto drive = [&](NearestFacilityStream& prefetched,
                         NearestFacilityStream& plain, int ops) {
    for (int op = 0; op < ops; ++op) {
      if (rng.UniformInt(0, 2) == 0) {
        prefetched.Prefetch(static_cast<int>(rng.UniformInt(1, 6)));
      }
      if (rng.UniformInt(0, 1) == 0) {
        EXPECT_EQ(prefetched.PeekDistance(), plain.PeekDistance());
      } else {
        const auto a = prefetched.Pop();
        const auto b = plain.Pop();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->facility, b->facility);
        }
      }
      ExpectSameSeed(prefetched.LogicalSeed(), plain.LogicalSeed());
    }
  };
  NearestFacilityStream cold_prefetched(&graph, customer,
                                        &facility_index_of_node);
  NearestFacilityStream cold_plain(&graph, customer, &facility_index_of_node);
  drive(cold_prefetched, cold_plain,
        1 + static_cast<int>(rng.UniformInt(0, 8)));

  StreamSeed seed = cold_plain.LogicalSeed();
  seed.skip_discoveries = cold_plain.num_popped();
  NearestFacilityStream warm_prefetched(&graph, customer,
                                        &facility_index_of_node, seed);
  NearestFacilityStream warm_plain(&graph, customer, &facility_index_of_node,
                                   seed);
  ExpectSameSeed(warm_plain.LogicalSeed(), seed);
  drive(warm_prefetched, warm_plain, 12);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, FacilityStreamTest,
                         ::testing::Range(0, 25));

TEST(FacilityStreamTest, PeekDoesNotConsume) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  std::vector<int> facility_index_of_node = {-1, 0, 1};
  NearestFacilityStream stream(&graph, 0, &facility_index_of_node);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 1.0);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 1.0);
  EXPECT_EQ(stream.Pop()->facility, 0);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 2.0);
}

TEST(FacilityStreamTest, CustomerOnFacilityNodeYieldsZeroDistance) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 5.0);
  const Graph graph = builder.Build();
  std::vector<int> facility_index_of_node = {0, 1};
  NearestFacilityStream stream(&graph, 0, &facility_index_of_node);
  const auto first = stream.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->facility, 0);
  EXPECT_DOUBLE_EQ(first->distance, 0.0);
}

}  // namespace
}  // namespace mcfs
