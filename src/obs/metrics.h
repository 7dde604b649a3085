#ifndef FIREHOSE_OBS_METRICS_H_
#define FIREHOSE_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/obs/log_histogram.h"

namespace firehose {
namespace obs {

/// Named monotonic counter. Plain (non-atomic): a registry belongs to one
/// thread; concurrent runtimes give each thread its own registry and
/// merge them deterministically afterwards (see MetricsRegistry::MergeFrom).
class Counter {
 public:
  void Add(uint64_t delta) { value_ += delta; }
  void Increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  uint64_t value_ = 0;
};

/// Instantaneous value with high-water tracking (queue depth, resident
/// bytes). Set() records the new value and bumps the high-water mark.
class Gauge {
 public:
  void Set(int64_t value) {
    value_ = value;
    if (value > high_water_) high_water_ = value;
  }
  void Add(int64_t delta) { Set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t high_water() const { return high_water_; }

 private:
  friend class MetricsRegistry;
  int64_t value_ = 0;
  int64_t high_water_ = 0;
};

/// What a registry entry is; fixed at first Get*() for a name.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Process- or run-wide registry of named metrics. Lookups return stable
/// pointers (hold them across the hot loop; the map lookup happens once).
/// Names sort lexicographically on export, so identical runs produce
/// byte-identical snapshots regardless of registration order.
///
/// Metrics registered with `timing = true` carry wall-clock-dependent
/// values (latency histograms, elapsed-time gauges); exporters can drop
/// them to produce snapshots that are byte-stable across repeated runs of
/// the same seed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, bool timing = false);
  Gauge* GetGauge(std::string_view name, bool timing = false);
  LogHistogram* GetHistogram(std::string_view name, bool timing = false);

  /// Attaches a human-readable description to an existing metric (no-op
  /// on unknown names). The Prometheus exporter renders it as a `# HELP`
  /// line with exposition-format escaping; the JSON snapshot ignores it,
  /// so help text never perturbs byte-stable artifacts.
  void SetHelp(std::string_view name, std::string_view help);

  /// Merges another registry into this one: counters add, gauges add
  /// value and high-water (a *sum* of high-waters is an upper bound on the
  /// concurrent peak — see IngestStats::sum_peak_bytes for the same
  /// caveat), histograms merge bucket-wise. Used to fold per-shard
  /// registries into a run registry, in deterministic shard order.
  void MergeFrom(const MetricsRegistry& other);

  /// One registry entry, as seen by exporters.
  struct MetricView {
    const std::string& name;
    MetricKind kind;
    bool timing;
    const Counter* counter;        // kind == kCounter
    const Gauge* gauge;            // kind == kGauge
    const LogHistogram* histogram; // kind == kHistogram
    const std::string& help;       // empty when never SetHelp'd
  };

  /// Visits every metric in lexicographic name order.
  void VisitSorted(const std::function<void(const MetricView&)>& fn) const;

  size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    bool timing = false;
    Counter counter;
    Gauge gauge;
    LogHistogram histogram;
    std::string help;
  };

  Metric& GetOrCreate(std::string_view name, MetricKind kind, bool timing);

  // std::map: sorted iteration for free, node-stable pointers for hot
  // loops that cache the Counter*/Gauge*/LogHistogram*.
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_METRICS_H_
