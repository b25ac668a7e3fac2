#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "measure.h"
#include "obs/metrics.h"
#include "relational/instance.h"

namespace lamp::bench {
namespace {

/// n, n-1, ..., 1 seconds: unsorted, so percentiles must sort.
std::vector<double> Countdown(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

/// Seconds of \p blocks blocks, block b being Countdown(kBlockQueries)
/// scaled by scales[b].
std::vector<double> Blocks(const std::vector<double>& scales) {
  std::vector<double> seconds;
  for (double scale : scales) {
    for (double s : Countdown(kBlockQueries)) seconds.push_back(scale * s);
  }
  return seconds;
}

TEST(PercentileTest, P90OfABlockLeavesTenSamplesBeyond) {
  EXPECT_EQ(kBlockQueries, 100u);
  obs::Histogram block;
  for (double s : Countdown(kBlockQueries)) block.Observe(s);
  const double p90 = block.Percentile(90);
  EXPECT_EQ(p90, 90.0);
  std::size_t beyond = 0;
  for (double s : Countdown(kBlockQueries)) beyond += s > p90 ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
  EXPECT_EQ(block.P50(), 50.0);
}

TEST(PercentileTest, MedianIsASample) {
  EXPECT_EQ(Median({7.0}), 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0}), 1.0);
}

TEST(CalibrationTest, ABlockIsScaledByTheProbesThatBracketIt) {
  const double ref = kReferenceProbeSeconds;
  // Block 0 between probes ref and 4 ref, block 1 between 4 ref and ref.
  const std::vector<double> scales = BlockScales({ref, 4 * ref, ref});
  ASSERT_EQ(scales.size(), 2u);
  EXPECT_DOUBLE_EQ(scales[0], 0.5);
  EXPECT_DOUBLE_EQ(scales[1], 0.5);
  ASSERT_EQ(BlockScales({ref, ref}).size(), 1u);
  EXPECT_DOUBLE_EQ(BlockScales({ref, ref})[0], 1.0);
}

TEST(CalibrationTest, AHostSlowdownThatTheProbesSeeCancels) {
  // The host slows down 1.5 times during the second of three blocks, and
  // the probes slow down with it.
  const double ref = kReferenceProbeSeconds;
  const std::vector<double> seconds = Blocks({1.0, 1.5, 1.5});
  const std::vector<double> scales =
      BlockScales({ref, ref, 1.5 * ref, 1.5 * ref});
  // Uncalibrated the median block is a slowed one; calibrated, the last
  // block reads as fast as the first.
  EXPECT_DOUBLE_EQ(BlockPercentile(seconds, {1.0, 1.0, 1.0}, 50), 75.0);
  EXPECT_DOUBLE_EQ(BlockPercentile(seconds, scales, 50), 50.0);
  EXPECT_DOUBLE_EQ(BlockPercentile(seconds, scales, 90), 90.0);
  // The second block has one fast and one slow probe around it.
  EXPECT_DOUBLE_EQ(scales[1], 1.0 / std::sqrt(1.5));
}

TEST(BlockTest, TheMedianBlockIgnoresOutlyingBlocks) {
  const std::vector<double> ones(5, 1.0);
  // Five blocks, two slowed and one sped up: the median block is 1.1.
  const std::vector<double> seconds = Blocks({1.5, 1.0, 1.1, 3.0, 0.5});
  EXPECT_DOUBLE_EQ(BlockPercentile(seconds, ones, 50), 1.1 * 50);
  EXPECT_DOUBLE_EQ(BlockPercentile(seconds, ones, 90), 1.1 * 90);
}

TEST(ThroughputTest, InputTuplesTimesQueriesOverQueryTime) {
  EXPECT_DOUBLE_EQ(Throughput(200000, 300, 15.0), 4.0e6);
  // One block of 100 queries of 1/128 s each, over 300 tuples each.
  const std::vector<double> seconds(100, 1.0 / 128);
  EXPECT_DOUBLE_EQ(BlockThroughput(seconds, {1.0}, 300), 300.0 * 128);
  // At scale 2 the same block counts as twice as long.
  EXPECT_DOUBLE_EQ(BlockThroughput(seconds, {2.0}, 300), 300.0 * 64);
  // The median block is the one whose 100 queries take 2 * 5050 s.
  EXPECT_DOUBLE_EQ(
      BlockThroughput(Blocks({2.0, 1.0, 3.0}), {1.0, 1.0, 1.0}, 101),
      101.0 * 100 / (2 * 5050));
}

TEST(QueryLogTest, PerturbedOutputCountsAsAFailure) {
  Instance reference;
  Instance reordered;
  for (std::int64_t i = 0; i < 10; ++i) {
    reference.Insert(Fact(0, {i, i + 1}));
    reordered.Insert(Fact(0, {9 - i, 10 - i}));
  }
  Instance missing;
  reference.ForEachFact([&missing](const Fact& f) {
    if (f.args[0].v != 3) missing.Insert(f);
  });
  Instance extra = reference;
  extra.Insert(Fact(0, {3, 3}));

  QueryLog log;
  log.Record(0.1, reordered == reference);
  log.Record(0.1, missing == reference);
  log.Record(0.1, extra == reference);
  EXPECT_EQ(log.attempted(), 3u);
  EXPECT_EQ(log.failed(), 2u);
}

}  // namespace
}  // namespace lamp::bench
