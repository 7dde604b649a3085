#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/log_histogram.h"

namespace firehose {
namespace obs {
namespace {

TEST(CounterTest, AddAndIncrement) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("posts_in");
  counter->Increment();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
}

TEST(CounterTest, LookupReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("a");
  registry.GetCounter("b");
  registry.GetCounter("c");
  EXPECT_EQ(first, registry.GetCounter("a"));
}

TEST(GaugeTest, HighWaterTracksMaximum) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("queue_depth");
  gauge->Set(5);
  gauge->Set(17);
  gauge->Set(3);
  EXPECT_EQ(gauge->value(), 3);
  EXPECT_EQ(gauge->high_water(), 17);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(gauge->high_water(), 17);
}

TEST(LogHistogramTest, CountSumMaxExact) {
  LogHistogram histogram;
  histogram.Record(100);
  histogram.Record(300);
  histogram.Record(0);  // clamps to first bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 400.0);
  EXPECT_EQ(histogram.max(), 300u);
}

TEST(LogHistogramTest, MergeFromAddsEverything) {
  LogHistogram a, b;
  for (uint64_t v = 1; v <= 500; ++v) a.Record(v);
  for (uint64_t v = 501; v <= 1000; ++v) b.Record(v);
  LogHistogram merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);

  LogHistogram direct;
  for (uint64_t v = 1; v <= 1000; ++v) direct.Record(v);

  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.sum(), direct.sum());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_EQ(merged.buckets(), direct.buckets());
  const HistogramSummary summary = merged.Summarize();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_NEAR(summary.p50, 500.0, 60.0);
}

TEST(LogHistogramTest, BucketEdgesCoverValue) {
  for (uint64_t value : {1ULL, 7ULL, 1000ULL, 123456789ULL}) {
    const int bucket = LogHistogram::BucketFor(value);
    EXPECT_LE(static_cast<double>(value),
              LogHistogram::BucketUpperValue(bucket) * 1.0001);
  }
}

TEST(MetricsRegistryTest, VisitSortedIsLexicographic) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetGauge("alpha");
  registry.GetHistogram("mid");
  std::vector<std::string> names;
  registry.VisitSorted([&](const MetricsRegistry::MetricView& m) {
    names.push_back(m.name);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST(MetricsRegistryTest, TimingFlagSticksFromFirstRegistration) {
  MetricsRegistry registry;
  registry.GetHistogram("latency_ns", /*timing=*/true);
  registry.GetHistogram("latency_ns");  // later lookup without the flag
  bool timing = false;
  registry.VisitSorted([&](const MetricsRegistry::MetricView& m) {
    timing = m.timing;
  });
  EXPECT_TRUE(timing);
}

TEST(MetricsRegistryTest, MergeFromCombinesAllKinds) {
  MetricsRegistry a, b;
  a.GetCounter("c")->Add(10);
  b.GetCounter("c")->Add(32);
  b.GetCounter("only_b")->Add(7);
  a.GetGauge("g")->Set(100);
  b.GetGauge("g")->Set(50);
  a.GetHistogram("h")->Record(1000);
  b.GetHistogram("h")->Record(2000);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("c")->value(), 42u);
  EXPECT_EQ(a.GetCounter("only_b")->value(), 7u);
  // Gauges add: merged per-shard residency sums (upper-bound semantics).
  EXPECT_EQ(a.GetGauge("g")->value(), 150);
  EXPECT_EQ(a.GetGauge("g")->high_water(), 150);
  EXPECT_EQ(a.GetHistogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.GetHistogram("h")->sum(), 3000.0);
}

TEST(MetricsRegistryTest, MergeOrderIndependentForCounters) {
  MetricsRegistry left, right, shard1, shard2;
  shard1.GetCounter("n")->Add(3);
  shard2.GetCounter("n")->Add(4);
  left.MergeFrom(shard1);
  left.MergeFrom(shard2);
  right.MergeFrom(shard2);
  right.MergeFrom(shard1);
  EXPECT_EQ(left.GetCounter("n")->value(), right.GetCounter("n")->value());
}

TEST(ManualClockTest, FrozenAndAutoAdvance) {
  ManualClock frozen(1000);
  EXPECT_EQ(frozen.NowNanos(), 1000u);
  EXPECT_EQ(frozen.NowNanos(), 1000u);
  frozen.AdvanceNanos(500);
  EXPECT_EQ(frozen.NowNanos(), 1500u);

  ManualClock ticking(0, 10);
  EXPECT_EQ(ticking.NowNanos(), 0u);
  EXPECT_EQ(ticking.NowNanos(), 10u);
  EXPECT_EQ(ticking.NowNanos(), 20u);
}

TEST(ClockTest, RealClockIsMonotonic) {
  const Clock* clock = RealClock();
  const uint64_t a = clock->NowNanos();
  const uint64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace obs
}  // namespace firehose
