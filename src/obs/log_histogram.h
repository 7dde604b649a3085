#ifndef FIREHOSE_OBS_LOG_HISTOGRAM_H_
#define FIREHOSE_OBS_LOG_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace firehose {
namespace obs {

/// Percentile summary of a LogHistogram. Values are in the unit the
/// histogram was recorded in (the histogram is unit-agnostic).
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Log-bucketed histogram over uint64 values: buckets at ~8% resolution
/// (9 per octave) covering 1 .. 2^36, constant memory, O(1) record.
/// Mergeable, so per-shard histograms aggregate into one distribution.
/// The same buckets serve any long-tailed quantity: the runtime drivers'
/// latencies in nanoseconds, comparisons per post, queue depths.
class LogHistogram {
 public:
  static constexpr int kBucketsPerOctave = 9;  // ~8% resolution
  static constexpr int kNumBuckets = 36 * kBucketsPerOctave;

  LogHistogram();

  /// Records one observation. Zero clamps to the first bucket.
  void Record(uint64_t value);

  /// Adds every bucket, count, sum and max of `other` into this.
  void MergeFrom(const LogHistogram& other);

  /// Value at quantile `q` in [0, 1], interpolated linearly inside the
  /// bucket the quantile lands in (and clamped to the observed max).
  /// Monotone non-decreasing in `q`: bucket upper edges never exceed the
  /// next occupied bucket's lower edge, so interpolation cannot step
  /// backwards across a bucket boundary. Empty histogram returns 0.
  double ValueAtQuantile(double q) const;

  /// Percentiles via ValueAtQuantile; exact for count/max/mean.
  HistogramSummary Summarize() const;

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  uint64_t max() const { return max_; }
  /// Smallest recorded value after clamping into the histogram's domain
  /// (values below 1 record as 1; 0 when empty). Together with max() it
  /// bounds every interpolated quantile: no estimate may leave the
  /// observed range.
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  /// Upper edge of bucket `bucket` (exclusive).
  static double BucketUpperValue(int bucket);

  /// Lower edge of bucket `bucket` (inclusive); equals
  /// BucketUpperValue(bucket - 1), with bucket 0 starting at 1 (values
  /// below 1 clamp into bucket 0 on Record).
  static double BucketLowerValue(int bucket);

  /// Bucket index for `value`: floor(9 * log2(value)), clamped to the
  /// buckets, found from the value's bit width and a table of edges.
  static int BucketFor(uint64_t value);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t max_ = 0;
  uint64_t min_ = ~0ULL;  // meaningful only when count_ > 0
};

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_LOG_HISTOGRAM_H_
