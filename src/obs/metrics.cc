#include "src/obs/metrics.h"

namespace firehose {
namespace obs {

MetricsRegistry::Metric& MetricsRegistry::GetOrCreate(std::string_view name,
                                                      MetricKind kind,
                                                      bool timing) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{}).first;
    it->second.kind = kind;
    it->second.timing = timing;
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, bool timing) {
  return &GetOrCreate(name, MetricKind::kCounter, timing).counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, bool timing) {
  return &GetOrCreate(name, MetricKind::kGauge, timing).gauge;
}

LogHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                            bool timing) {
  return &GetOrCreate(name, MetricKind::kHistogram, timing).histogram;
}

void MetricsRegistry::SetHelp(std::string_view name, std::string_view help) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) it->second.help.assign(help);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, metric] : other.metrics_) {
    Metric& mine = GetOrCreate(name, metric.kind, metric.timing);
    if (mine.help.empty()) mine.help = metric.help;
    switch (metric.kind) {
      case MetricKind::kCounter:
        mine.counter.Add(metric.counter.value());
        break;
      case MetricKind::kGauge:
        mine.gauge.value_ += metric.gauge.value_;
        mine.gauge.high_water_ += metric.gauge.high_water_;
        break;
      case MetricKind::kHistogram:
        mine.histogram.MergeFrom(metric.histogram);
        break;
    }
  }
}

void MetricsRegistry::VisitSorted(
    const std::function<void(const MetricView&)>& fn) const {
  for (const auto& [name, metric] : metrics_) {
    fn(MetricView{name, metric.kind, metric.timing, &metric.counter,
                  &metric.gauge, &metric.histogram, metric.help});
  }
}

}  // namespace obs
}  // namespace firehose
