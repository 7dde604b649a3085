#include "src/runtime/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "src/core/engine.h"
#include "src/core/kernels/dispatch.h"
#include "src/obs/export.h"
#include "src/obs/log.h"

namespace firehose {

namespace {

// A paced wait sleeps in one call until this long before its release and
// spins on the clock for the rest, so the post is released on time: a
// sleep overshoots by tens of microseconds.
constexpr uint64_t kSpinNanos = 100'000;

/// Appends `"key": value` to the JSON object `*json`, after a comma
/// unless it is the first field.
void AppendStatusField(std::string* json, const char* key, uint64_t value) {
  if (json->size() > 1) json->append(", ");
  *json += '"' + std::string(key) + "\": " + std::to_string(value);
}

void AppendStatusField(std::string* json, const char* key,
                       const char* value) {
  if (json->size() > 1) json->append(", ");
  *json += '"' + std::string(key) + "\": \"" + value + '"';
}

}  // namespace

PipelineReport Pipeline::Run(const PostStream& stream, const PipelineObs& o,
                             const PipelineDur& d) {
  const obs::Clock* clock = o.clock != nullptr ? o.clock : obs::RealClock();
  obs::TraceScope run_span(o.trace, "Pipeline::Run", "pipeline");
  obs::LogHistogram* comparisons =
      o.metrics != nullptr
          ? o.metrics->GetHistogram("pipeline.decision_comparisons")
          : nullptr;
  const bool paced = speedup_ > 0.0;
  obs::Gauge* backlog_gauge =
      paced && o.metrics != nullptr
          ? o.metrics->GetGauge("pipeline.backlog", /*timing=*/true)
          : nullptr;
  PipelineReport report;
  obs::LogHistogram latency;
  obs::LogHistogram lateness;
  const uint64_t pruned_at_start = diversifier_->stats().pruned;
  const uint64_t run_start = clock->NowNanos();
  const int watchdog_task =
      o.watchdog != nullptr ? o.watchdog->RegisterTask("pipeline") : -1;

  const size_t first = d.session != nullptr ? d.session->next_seq() : 0;
  // When post `i` is released: its distance from the first post decided,
  // scaled by the speedup. Clamped, so that an out-of-order timestamp or
  // a tiny speedup cannot overflow the cast.
  auto release_of = [&](size_t i) {
    const double offset_nanos =
        static_cast<double>(stream[i].time_ms - stream[first].time_ms) * 1e6 /
        speedup_;
    return run_start +
           static_cast<uint64_t>(std::clamp(offset_nanos, 0.0, 9e18));
  };
  size_t released = first;  // posts [first, released) are released
  uint64_t backlog = 0;

  const char* mode =
      paced ? "live" : d.session != nullptr ? "durable" : "batch";
  // A publication renders a scratch registry, the run registry merged and
  // the diversifier's stats exported into it, and never writes the run
  // registry: the final --metrics_out snapshot is byte-identical with or
  // without a scraper, and every scraped counter is <= its final value.
  // With a DebugState the first check is due; without one, none is.
  uint64_t publish_due = o.debug != nullptr ? run_start : UINT64_MAX;
  auto publish = [&](uint64_t now, bool drained) {
    publish_due = now + o.publish_interval_nanos;
    obs::MetricsRegistry snapshot;
    if (o.metrics != nullptr) snapshot.MergeFrom(*o.metrics);
    ExportDiversifierMetrics(*diversifier_, &snapshot);
    obs::ExportOptions options;
    options.include_timing = true;  // scrapes are live views, not artifacts
    o.debug->PublishMetrics(obs::ExportPrometheus(snapshot, options),
                            obs::ExportJson(snapshot, options));
    std::string status = "{";
    AppendStatusField(&status, "mode", drained ? "drained" : mode);
    AppendStatusField(&status, "posts_in", report.posts_in);
    AppendStatusField(&status, "posts_out", report.posts_out);
    if (!drained) {
      AppendStatusField(&status, "comparisons",
                        diversifier_->stats().comparisons);
      if (paced) AppendStatusField(&status, "backlog", backlog);
    }
    AppendStatusField(&status, "kernel",
                      kernels::GetKernelDispatchReport().active);
    if (!drained && d.session != nullptr) {
      AppendStatusField(&status, "wal_next_seq", d.session->next_seq());
    }
    status.push_back('}');
    o.debug->PublishStatus(std::move(status));
  };

  for (size_t i = first; i < stream.size(); ++i) {
    const Post& post = stream[i];
    uint64_t release = 0;
    if (paced) {
      release = release_of(i);
      uint64_t now = clock->NowNanos();
      if (now < release) {
        // Nothing released is undecided, so a long gap is idle time, not
        // a stall.
        backlog = 0;
        if (watchdog_task >= 0) o.watchdog->SetQueueDepth(watchdog_task, 0);
      }
      // One clock read per turn, so the gaps below are never negative.
      // The wait sleeps until kSpinNanos before the release, waking for
      // each publication due before then, and spins for the rest.
      for (; now < release; now = clock->NowNanos()) {
        if (now >= publish_due) publish(now, false);
        if (release - now > kSpinNanos) {
          clock->SleepNanos(std::min(release - kSpinNanos, publish_due) - now);
        }
      }
    }
    ++report.posts_in;
    const uint64_t comparisons_before = diversifier_->stats().comparisons;
    const uint64_t start = clock->NowNanos();
    bool admitted = false;
    if (d.session != nullptr) {
      // Durable path: WAL append before the decision; a failed append
      // stops the run (an unlogged decision could never be replayed).
      if (!d.session->Process(post, &admitted)) {
        report.io_error = true;
        FIREHOSE_LOG(kError, "wal append failed, pipeline run aborted")
            .Kv("posts_in", report.posts_in);
        break;
      }
    } else {
      admitted = diversifier_->Offer(post);
    }
    const uint64_t end = clock->NowNanos();
    latency.Record(end - start);
    if (o.flight != nullptr) {
      o.flight->RecordComplete(/*tid=*/0, "decide", "pipeline", start, end);
    }
    if (comparisons != nullptr) {
      comparisons->Record(diversifier_->stats().comparisons -
                          comparisons_before);
    }
    if (paced) {
      lateness.Record(end - release);
      released = std::max(released, i + 1);
      while (released < stream.size() && release_of(released) <= start) {
        ++released;
      }
      backlog = released - i;
      report.backlog_high_water = std::max(report.backlog_high_water, backlog);
      if (backlog_gauge != nullptr) {
        backlog_gauge->Set(static_cast<int64_t>(backlog));
      }
    }
    if (admitted) {
      ++report.posts_out;
      sink_->Deliver(post);
    }
    if (d.session != nullptr) {
      if (d.after_post) d.after_post();
      if (d.checkpoint && d.session->ShouldCheckpoint() && !d.checkpoint()) {
        report.io_error = true;
        break;
      }
    }
    if (watchdog_task >= 0) {
      o.watchdog->ReportProgress(watchdog_task, report.posts_in);
      // Depth 1 while posts remain keeps the stall rule armed; a paced
      // wait and the end of the stream reset it.
      o.watchdog->SetQueueDepth(watchdog_task, 1);
    }
    if (end >= publish_due) publish(end, false);
  }
  if (watchdog_task >= 0) o.watchdog->SetQueueDepth(watchdog_task, 0);
  const uint64_t wall_nanos = clock->NowNanos() - run_start;
  report.wall_ms = static_cast<double>(wall_nanos) / 1e6;
  report.decision_latency = latency.Summarize();
  report.lateness = lateness.Summarize();
  if (o.metrics != nullptr) {
    o.metrics->GetCounter("pipeline.posts_in")->Add(report.posts_in);
    o.metrics->GetCounter("pipeline.posts_out")->Add(report.posts_out);
    o.metrics->GetCounter("pipeline.posts_suppressed")
        ->Add(report.posts_in - report.posts_out);
    o.metrics->GetHistogram("pipeline.decision_latency_ns", /*timing=*/true)
        ->MergeFrom(latency);
    if (paced) {
      o.metrics->GetHistogram("pipeline.lateness_ns", /*timing=*/true)
          ->MergeFrom(lateness);
      backlog_gauge->Set(0);  // drained
    }
    o.metrics->GetGauge("pipeline.wall_ns", /*timing=*/true)
        ->Set(static_cast<int64_t>(wall_nanos));
    o.metrics->GetCounter("pipeline.candidates_pruned")
        ->Add(diversifier_->stats().pruned - pruned_at_start);
  }
  // Final snapshot: a post-drain scrape matches the end-of-run registry.
  if (o.debug != nullptr) publish(clock->NowNanos(), /*drained=*/true);
  return report;
}

}  // namespace firehose
