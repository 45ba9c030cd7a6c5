#include "perfbench/harness.h"

#include <gtest/gtest.h>

#include <cmath>

namespace spq::perfbench {
namespace {

using core::ResultEntry;

TEST(TailQuantileTest, HighestQuantileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(10'000), 0.999);  // 10 beyond
  EXPECT_DOUBLE_EQ(TailQuantile(9'999), 0.995);   // 9 beyond p99.9
  EXPECT_DOUBLE_EQ(TailQuantile(2'000), 0.995);
  EXPECT_DOUBLE_EQ(TailQuantile(1'000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(500), 0.98);
  EXPECT_DOUBLE_EQ(TailQuantile(499), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(200), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);  // exact, no rounding edge
  EXPECT_DOUBLE_EQ(TailQuantile(99), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(40), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(39), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0), 0.5);
}

TEST(TailQuantileTest, CapLimitsTheQuantile) {
  EXPECT_DOUBLE_EQ(TailQuantile(1'000'000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(300, 0.99), 0.95);
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(7, 500.0, 2.0);
  const auto b = PoissonSchedule(7, 500.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, 500.0, 2.0));
}

TEST(PoissonScheduleTest, IncreasingWithinWindowAtTheRate) {
  const double rate = 1'000.0, seconds = 20.0;
  const auto s = PoissonSchedule(3, rate, seconds);
  ASSERT_FALSE(s.empty());
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  EXPECT_GE(s.front(), 0.0);
  EXPECT_LT(s.back(), seconds);
  // 20k expected arrivals, standard deviation ~141.
  EXPECT_NEAR(static_cast<double>(s.size()), rate * seconds, 1'000.0);
  EXPECT_TRUE(PoissonSchedule(3, 0.0, 1.0).empty());
}

TEST(CompareTopKTest, IdenticalMatches) {
  const std::vector<ResultEntry> want = {{4, 0.9}, {2, 0.5}, {7, 0.25}};
  EXPECT_EQ(CompareTopK(want, want), "");
}

TEST(CompareTopKTest, ScoreOrLengthMismatchIsReported) {
  const std::vector<ResultEntry> want = {{4, 0.9}, {2, 0.5}};
  EXPECT_NE(CompareTopK({{4, 0.9}, {2, 0.4}}, want), "");
  EXPECT_NE(CompareTopK({{4, 0.9}}, want), "");
}

TEST(CompareTopKTest, IdsMayDifferInsideATieOnlyAtTheCut) {
  // Ranks 1-2 tie inside the list: same ids in any order are fine, a
  // different object is not. The last run (ranks 3-4) is cut by k, so any
  // objects of that score are fine.
  const std::vector<ResultEntry> want = {
      {1, 0.9}, {2, 0.5}, {3, 0.5}, {4, 0.25}, {5, 0.25}};
  EXPECT_EQ(CompareTopK({{1, 0.9}, {3, 0.5}, {2, 0.5}, {8, 0.25}, {9, 0.25}},
                        want),
            "");
  EXPECT_NE(CompareTopK({{1, 0.9}, {2, 0.5}, {6, 0.5}, {4, 0.25}, {5, 0.25}},
                        want),
            "");
  EXPECT_NE(CompareTopK({{7, 0.9}, {2, 0.5}, {3, 0.5}, {4, 0.25}, {5, 0.25}},
                        want),
            "");
}

TEST(CompareTopKTest, DuplicateIdsAreReported) {
  const std::vector<ResultEntry> want = {{1, 0.5}, {2, 0.5}};
  EXPECT_NE(CompareTopK({{1, 0.5}, {1, 0.5}}, want), "");
}

TEST(SplitLayersTest, LayersAddUpToTheLatency) {
  mapreduce::JobStats job;
  job.map_seconds = 0.0021;
  job.reduce_seconds = 0.0137;
  job.total_seconds = 0.0173;
  // Direct call: nothing outside the call.
  const LayerSplit direct = SplitLayers(0.0191, 0.0191, job);
  EXPECT_DOUBLE_EQ(direct.outside, 0.0);
  EXPECT_NEAR(direct.engine, 0.0018, 1e-15);
  EXPECT_NEAR(direct.shuffle, 0.0015, 1e-15);
  EXPECT_NEAR(direct.Total(), 0.0191, 1e-15);
  // Front door: queueing before the engine call.
  const LayerSplit door = SplitLayers(0.0500, 0.0191, job);
  EXPECT_NEAR(door.outside, 0.0309, 1e-15);
  EXPECT_NEAR(door.Total(), 0.0500, 1e-15);
}

}  // namespace
}  // namespace spq::perfbench
