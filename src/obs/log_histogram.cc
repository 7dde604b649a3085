#include "src/obs/log_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace firehose {
namespace obs {

namespace {

/// 2^(k/9) for k = 0..8, each the double nearest it: the lower edges of
/// an octave's buckets, as fractions of the octave's base.
constexpr double kOctaveEdges[LogHistogram::kBucketsPerOctave] = {
    1.0,
    1.080059738892306,
    1.1665290395761165,
    1.2599210498948732,
    1.360790000174377,
    1.4697344922755988,
    1.5874010519681996,
    1.7144879657061456,
    1.851749424574581,
};

}  // namespace

LogHistogram::LogHistogram()
    : buckets_(static_cast<size_t>(kNumBuckets), 0) {}

int LogHistogram::BucketFor(uint64_t value) {
  // The octave is the value's bit width; the step inside it comes from a
  // table, not from std::log2, so recording calls nothing in libm.
  if (value < 1) value = 1;
  const int octave = std::bit_width(value) - 1;
  if (octave >= kNumBuckets / kBucketsPerOctave) return kNumBuckets - 1;
  // Exact: the value has at most 36 bits, and scaling an edge by a power
  // of two only moves its exponent.
  const double v = static_cast<double>(value);
  const double base = static_cast<double>(uint64_t{1} << octave);
  int step = 0;
  while (step + 1 < kBucketsPerOctave && v >= kOctaveEdges[step + 1] * base) {
    ++step;
  }
  return octave * kBucketsPerOctave + step;
}

double LogHistogram::BucketUpperValue(int bucket) {
  return std::exp2(static_cast<double>(bucket + 1) / kBucketsPerOctave);
}

double LogHistogram::BucketLowerValue(int bucket) {
  return std::exp2(static_cast<double>(bucket) / kBucketsPerOctave);
}

double LogHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The continuous rank the quantile asks for: rank r means "r of the
  // count_ observations lie at or below the returned value". Walking the
  // buckets and interpolating linearly inside the one the rank lands in
  // keeps the result monotone in q: the interpolant is increasing within
  // a bucket, and a bucket's upper edge never exceeds the next occupied
  // bucket's lower edge.
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const double next_seen = seen + static_cast<double>(in_bucket);
    if (rank <= next_seen) {
      const double lower = BucketLowerValue(i);
      const double upper = BucketUpperValue(i);
      const double fraction = (rank - seen) / static_cast<double>(in_bucket);
      const double value = lower + fraction * (upper - lower);
      // The true extremes are tracked exactly; no interpolated value may
      // leave [min, max] (clamping preserves monotonicity in q).
      return std::min(std::max(value, static_cast<double>(min_)),
                      static_cast<double>(max_));
    }
    seen = next_seen;
  }
  return static_cast<double>(max_);
}

void LogHistogram::Record(uint64_t value) {
  ++buckets_[static_cast<size_t>(BucketFor(value))];
  ++count_;
  sum_ += static_cast<double>(value);
  // The histogram's domain starts at 1 (BucketFor floors to 1), so the
  // tracked extremes do too; otherwise a recorded 0 would drag every
  // quantile to 0 through the [min, max] clamp.
  const uint64_t floored = value < 1 ? 1 : value;
  if (floored > max_) max_ = floored;
  if (floored < min_) min_ = floored;
}

void LogHistogram::MergeFrom(const LogHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] +=
        other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  if (other.count_ > 0) min_ = std::min(min_, other.min_);
}

HistogramSummary LogHistogram::Summarize() const {
  HistogramSummary summary;
  summary.count = count_;
  if (count_ == 0) return summary;
  summary.mean = sum_ / static_cast<double>(count_);
  summary.max = static_cast<double>(max_);

  summary.p50 = ValueAtQuantile(0.50);
  summary.p95 = ValueAtQuantile(0.95);
  summary.p99 = ValueAtQuantile(0.99);
  return summary;
}

}  // namespace obs
}  // namespace firehose
