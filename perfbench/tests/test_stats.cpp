// Tests for the benchmark's percentile and self-time helpers.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace pb = perfbench;

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 90.0), 4.6);
  EXPECT_DOUBLE_EQ(pb::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(pb::percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, MedianOfUnsortedSample) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(TailLevel, KeepsTenSamplesBeyond) {
  EXPECT_EQ(pb::samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(pb::samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(pb::samples_beyond(100, 90.0), 10u);
  EXPECT_DOUBLE_EQ(pb::tail_level(1000, 99.0), 99.0);
  // Too few samples for p99: fall back to the highest level that has 10.
  EXPECT_DOUBLE_EQ(pb::tail_level(999, 99.0), 95.0);
  EXPECT_DOUBLE_EQ(pb::tail_level(100, 99.0), 90.0);
  EXPECT_DOUBLE_EQ(pb::tail_level(30, 99.0), 50.0);
  // Never above the preferred level, even with samples to spare.
  EXPECT_DOUBLE_EQ(pb::tail_level(100000, 90.0), 90.0);
}

TEST(Normalized, ScalesByTheBracketingReferenceTimes) {
  // Sample 0 ran between references of 100 and 300 ns (mean 200, twice
  // the nominal 100), sample 1 between 300 and 100 ns, sample 2 between
  // 100 and 100 ns.
  const auto got = pb::normalized({8.0, 4.0, 5.0}, {100.0, 300.0, 100.0, 100.0}, 100.0);
  EXPECT_EQ(got, (std::vector<double>{4.0, 2.0, 5.0}));
  // A sample without a reference after it is dropped.
  EXPECT_EQ(pb::normalized({8.0, 4.0}, {100.0, 100.0}, 50.0), (std::vector<double>{4.0}));
  EXPECT_TRUE(pb::normalized({}, {100.0}, 100.0).empty());
}

TEST(SelfTime, SubtractsChildCoverage) {
  // root [0, 100] with children [10, 30] and [50, 60]; the first child
  // has its own child [15, 20].
  const std::vector<pb::SpanRecord> spans{
      {"bench.op", 0, 100, -1, 1},
      {"engine.query", 10, 30, 0, 1},
      {"kernels.reduce", 15, 20, 1, 1},
      {"engine.query", 50, 60, 0, 1},
  };
  const auto self = pb::self_seconds_by_layer(spans);
  EXPECT_NEAR(self.at("bench"), 70e-9, 1e-15);
  EXPECT_NEAR(self.at("engine"), 25e-9, 1e-15);
  EXPECT_NEAR(self.at("kernels"), 5e-9, 1e-15);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<pb::SpanRecord> spans{
      {"engine.batch", 0, 100, -1, 0},
      {"kernels.a", 10, 50, 0, 0},
      {"kernels.b", 40, 120, 0, 0},  // overlaps a and runs past the parent
  };
  const auto self = pb::self_seconds_by_layer(spans);
  EXPECT_NEAR(self.at("engine"), 10e-9, 1e-15);
  EXPECT_NEAR(self.at("kernels"), 120e-9, 1e-15);
}

TEST(SelfTime, LayerIsNamePrefix) {
  EXPECT_EQ(pb::layer_of("junction_tree.build"), "junction_tree");
  EXPECT_EQ(pb::layer_of("bench"), "bench");
}
