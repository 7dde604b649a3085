#include "src/obs/log_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace firehose {
namespace obs {
namespace {

TEST(LogHistogramQuantileTest, EmptyHistogramIsZeroEverywhere) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.ValueAtQuantile(0.0), 0.0);
  EXPECT_EQ(histogram.ValueAtQuantile(0.5), 0.0);
  EXPECT_EQ(histogram.ValueAtQuantile(1.0), 0.0);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.mean, 0.0);
  EXPECT_EQ(summary.p99, 0.0);
}

TEST(LogHistogramQuantileTest, SingleValueCollapsesEveryQuantile) {
  LogHistogram histogram;
  histogram.Record(1000);
  // One observation: every quantile is that observation (the clamp to
  // [min, max] collapses the bucket interpolation).
  for (double q : {0.0, 0.01, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(histogram.ValueAtQuantile(q), 1000.0) << q;
  }
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 1u);
  EXPECT_EQ(summary.mean, 1000.0);
  EXPECT_EQ(summary.max, 1000.0);
}

TEST(LogHistogramQuantileTest, InterpolatesInsideABucket) {
  LogHistogram histogram;
  // 1024 is an exact bucket lower edge (2^10); fill that one bucket.
  for (int i = 0; i < 100; ++i) histogram.Record(1024);
  const int bucket = LogHistogram::BucketFor(1024);
  const double lower = LogHistogram::BucketLowerValue(bucket);
  const double upper = LogHistogram::BucketUpperValue(bucket);
  const double p50 = histogram.ValueAtQuantile(0.5);
  // Within the bucket's edges before clamping; the exact-extreme clamp
  // then pins it to the single recorded value's range.
  EXPECT_GE(p50, lower - 1e-9);
  EXPECT_LE(p50, upper + 1e-9);
  EXPECT_EQ(p50, 1024.0);  // min == max == 1024 forces exactness
}

TEST(LogHistogramQuantileTest, QuantilesAreClampedToObservedRange) {
  LogHistogram histogram;
  histogram.Record(100);
  histogram.Record(200);
  histogram.Record(400);
  EXPECT_GE(histogram.ValueAtQuantile(0.0), 100.0);
  EXPECT_LE(histogram.ValueAtQuantile(1.0), 400.0);
}

TEST(LogHistogramQuantileTest, ZeroRecordsClampIntoDomain) {
  LogHistogram histogram;
  histogram.Record(0);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_EQ(histogram.min(), 1u);
  // The quantile stays in the histogram's [1, 2^(1/9)) first bucket
  // instead of being dragged to 0 by the raw recorded value.
  EXPECT_GT(histogram.ValueAtQuantile(0.5), 0.0);
}

TEST(LogHistogramTest, MeanIsExact) {
  LogHistogram histogram;
  histogram.Record(1000);
  histogram.Record(3000);
  EXPECT_NEAR(histogram.Summarize().mean, 2000.0, 1e-6);
}

TEST(LogHistogramTest, PercentilesApproximateUniform) {
  LogHistogram histogram;
  // Uniform 10 .. 1e6: p50 ≈ 5e5, p99 ≈ 9.9e5 (within bucket resolution).
  for (uint64_t i = 1; i <= 100000; ++i) histogram.Record(i * 10);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_NEAR(summary.p50, 500000.0, 60000.0);
  EXPECT_NEAR(summary.p99, 990000.0, 110000.0);
}

TEST(LogHistogramTest, HugeValuesClampToLastBucket) {
  LogHistogram histogram;
  histogram.Record(~0ULL);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 1u);
  EXPECT_EQ(histogram.buckets().back(), 1u);
  EXPECT_GT(summary.max, 1e12);  // > 1000 s of nanoseconds, via exact max
}

TEST(LogHistogramTest, MergeFromCombinesDistributions) {
  // Per-shard histograms merged in shard order must summarize exactly
  // like one histogram that saw every sample.
  LogHistogram shard0, shard1, direct;
  for (uint64_t i = 1; i <= 5000; ++i) {
    shard0.Record(i * 10);
    direct.Record(i * 10);
  }
  for (uint64_t i = 5001; i <= 10000; ++i) {
    shard1.Record(i * 10);
    direct.Record(i * 10);
  }
  LogHistogram merged;
  merged.MergeFrom(shard0);
  merged.MergeFrom(shard1);
  EXPECT_EQ(merged.count(), 10000u);
  const HistogramSummary a = merged.Summarize();
  const HistogramSummary b = direct.Summarize();
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_EQ(merged.buckets(), direct.buckets());
}

TEST(LogHistogramTest, MergeFromEmptyIsIdentity) {
  LogHistogram histogram, empty;
  histogram.Record(500);
  histogram.MergeFrom(empty);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.Summarize().max, 500.0);
}

TEST(LogHistogramTest, BucketResolutionWithinTenPercent) {
  // For any value, the reported percentile (interpolated inside the
  // value's bucket, then clamped to the observed range) stays within
  // ~+10% of the true sample.
  for (uint64_t value : {50ULL, 1234ULL, 987654ULL, 55555555ULL}) {
    LogHistogram histogram;
    histogram.Record(value);
    const double p50 = histogram.Summarize().p50;
    EXPECT_GE(p50, static_cast<double>(value) * 0.99);
    EXPECT_LE(p50, static_cast<double>(value) * 1.12);
  }
}

TEST(LogHistogramTest, BucketForEqualsFloorOfNineLog2) {
  // BucketFor reads its in-octave edges from a table so that recording
  // needs no libm; it must still bucket every value as the log2 formula
  // does: all values to 2^24, and those within 3 of each bucket edge up
  // to the last bucket's and beyond.
  auto by_log2 = [](uint64_t value) {
    const double log2v =
        std::log2(static_cast<double>(std::max<uint64_t>(value, 1)));
    return std::min(static_cast<int>(log2v * LogHistogram::kBucketsPerOctave),
                    LogHistogram::kNumBuckets - 1);
  };
  uint64_t mismatches = 0;
  uint64_t first_mismatch = 0;
  auto check = [&](uint64_t v) {
    if (LogHistogram::BucketFor(v) != by_log2(v) && mismatches++ == 0) {
      first_mismatch = v;
    }
  };
  for (uint64_t v = 0; v <= (uint64_t{1} << 24); ++v) check(v);
  for (int bucket = 0; bucket <= LogHistogram::kNumBuckets + 36; ++bucket) {
    const auto edge =
        static_cast<uint64_t>(LogHistogram::BucketLowerValue(bucket));
    for (uint64_t v = edge >= 3 ? edge - 3 : 0; v <= edge + 3; ++v) check(v);
  }
  check(~uint64_t{0});
  EXPECT_EQ(mismatches, 0u) << "first at " << first_mismatch;
}

// The property the interpolation must never violate: for any data set
// and any q1 <= q2, ValueAtQuantile(q1) <= ValueAtQuantile(q2) — even
// across bucket boundaries, where naive interpolation schemes step
// backwards.
TEST(LogHistogramQuantilePropertyTest, MonotoneOverRandomizedInserts) {
  Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    LogHistogram histogram;
    const int inserts = 1 + static_cast<int>(rng.Next() % 2000);
    for (int i = 0; i < inserts; ++i) {
      // Mix of magnitudes: uniform in a random octave span, so some
      // trials are tight clusters and others span many buckets.
      const int shift = static_cast<int>(rng.Next() % 30);
      histogram.Record(rng.Next() % (1ull << (shift + 4)));
    }
    double previous = -1.0;
    for (int step = 0; step <= 1000; ++step) {
      const double q = static_cast<double>(step) / 1000.0;
      const double value = histogram.ValueAtQuantile(q);
      ASSERT_GE(value, previous)
          << "quantile regression at q=" << q << " on trial " << trial;
      previous = value;
    }
    // End points respect the exact tracked extremes.
    EXPECT_GE(histogram.ValueAtQuantile(0.0),
              static_cast<double>(histogram.min()));
    EXPECT_LE(histogram.ValueAtQuantile(1.0),
              static_cast<double>(histogram.max()));
  }
}

TEST(LogHistogramQuantilePropertyTest, MergePreservesMonotonicity) {
  Rng rng(777);
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 500; ++i) {
    a.Record(rng.Next() % 100000);
    b.Record(1 + rng.Next() % 100);
  }
  LogHistogram merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.min(), std::min(a.min(), b.min()));
  EXPECT_EQ(merged.max(), std::max(a.max(), b.max()));
  double previous = -1.0;
  for (int step = 0; step <= 200; ++step) {
    const double value =
        merged.ValueAtQuantile(static_cast<double>(step) / 200.0);
    ASSERT_GE(value, previous);
    previous = value;
  }
}

}  // namespace
}  // namespace obs
}  // namespace firehose
