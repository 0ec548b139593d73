// Tests of the benchmark's own measurement helpers.

#include "helpers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, unsorted
  EXPECT_EQ(Percentile(samples, 0.50), 50.0);
  EXPECT_EQ(Percentile(samples, 0.90), 90.0);
  EXPECT_EQ(Percentile(samples, 0.99), 99.0);
  EXPECT_EQ(Percentile(samples, 1.00), 100.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Rank ceil(0.9 * 11) = 10 of 1..11.
  EXPECT_EQ(Percentile({11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.90), 10.0);
}

TEST(PercentileTest, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10);
  EXPECT_TRUE(PercentileSupported(100, 0.90));
  EXPECT_FALSE(PercentileSupported(99, 0.90));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_FALSE(PercentileSupported(0, 0.50));
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PoissonScheduleTest, SeededSortedExactCount) {
  const std::vector<double> a = PoissonSchedule(200.0, 10.0, 7);
  EXPECT_EQ(a, PoissonSchedule(200.0, 10.0, 7));
  EXPECT_NE(a, PoissonSchedule(200.0, 10.0, 8));
  ASSERT_EQ(a.size(), 2000u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i], 0.0);
    EXPECT_LT(a[i], 10.0);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]);
    }
  }
  EXPECT_TRUE(PoissonSchedule(0.0, 10.0, 7).empty());
}

TEST(PoissonScheduleTest, GapsLookExponential) {
  const std::vector<double> due = PoissonSchedule(100.0, 100.0, 3);
  std::vector<double> gaps;
  for (size_t i = 1; i < due.size(); ++i) gaps.push_back(due[i] - due[i - 1]);
  // Exponential gaps with mean 1/rate: the median is ln 2 / rate, and
  // about e^-3 of the gaps exceed three means.
  EXPECT_NEAR(Mean(gaps), 0.01, 0.0005);
  EXPECT_NEAR(Median(gaps), 0.01 * 0.6931, 0.0006);
  int long_gaps = 0;
  for (const double g : gaps) long_gaps += g > 0.03 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(long_gaps) / gaps.size(), 0.0498, 0.01);
}

TEST(OpenLoopTest, LatencyFromDueTimeAndGeneratorLag) {
  // The second request was due at 1.0 but the generator only sent it at
  // 1.5: its latency counts the stall, and the lag records it.
  const std::vector<OpenLoopTiming> timings = {
      {0.0, 0.0, 0.2}, {1.0, 1.5, 1.6}, {1.1, 1.5, 2.1}};
  const OpenLoopSummary summary = SummarizeOpenLoop(timings);
  ASSERT_EQ(summary.latency_ms.size(), 3u);
  EXPECT_NEAR(summary.latency_ms[0], 200.0, 1e-9);
  EXPECT_NEAR(summary.latency_ms[1], 600.0, 1e-9);
  EXPECT_NEAR(summary.latency_ms[2], 1000.0, 1e-9);
  EXPECT_NEAR(summary.lag_p99_ms, 500.0, 1e-9);
  EXPECT_EQ(summary.backlog_max, 2);
  // In flight over [0, 0.2) and [1.0, 2.1): the idle gap does not count.
  EXPECT_NEAR(summary.busy_seconds, 1.3, 1e-9);
}

TEST(OpenLoopTest, BacklogCountsOverlap) {
  std::vector<OpenLoopTiming> timings;
  for (int i = 0; i < 5; ++i) timings.push_back({0.1 * i, 0.1 * i, 10.0});
  EXPECT_EQ(SummarizeOpenLoop(timings).backlog_max, 5);
  // Back to back: each completes exactly when the next is sent.
  timings.clear();
  for (int i = 0; i < 5; ++i) timings.push_back({1.0 * i, 1.0 * i, 1.0 * i + 1});
  EXPECT_EQ(SummarizeOpenLoop(timings).backlog_max, 1);
}

TEST(SelfTimeTest, SubtractsChildrenOnce) {
  std::vector<Span> spans = {
      {"op", -1, 0, 0.0, 10.0},
      {"a", 0, 0, 1.0, 4.0},
      {"b", 0, 0, 3.0, 6.0},    // overlaps a by 1: covered once
      {"c", 1, 0, 1.5, 2.0},    // grandchild: only a loses it
      {"d", 0, 0, 9.0, 12.0},   // clipped to the parent's end
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  const auto by_name = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("op"), 4.0);
}

TEST(SelfTimeTest, PhasesLaidEndToEndAndClipped) {
  SpanLog log;
  const int parent = log.Add("run_wma", -1, 3, 1.0, 2.0);
  const int first =
      log.AddPhases(parent, 1.0, {{"x", 0.25}, {"y", 0.5}, {"z", 0.5}});
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(first, 1);
  EXPECT_DOUBLE_EQ(spans[1].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[2].start, 1.25);
  EXPECT_DOUBLE_EQ(spans[3].end, 2.0);  // 0.5 requested, 0.25 fits
  EXPECT_EQ(spans[3].op, 3);
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 0.0);
}

TEST(MeasuredLineTest, Schema) {
  const std::string line = MeasuredLine(
      true, 12, 0, {{"ops_per_s", 0.1}, {"latency_p50_ms", 1.25}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"values\": {\"latency_p50_ms\": 1.25, \"ops_per_s\": "
            "0.10000000000000001}}");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

}  // namespace
}  // namespace perfbench
