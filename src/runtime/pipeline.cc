#include "src/runtime/pipeline.h"

#include "src/core/kernels/dispatch.h"
#include "src/obs/log.h"
#include "src/runtime/introspect.h"

namespace firehose {

PipelineReport Pipeline::Run(PostSource& source, const PipelineObs& o,
                             const PipelineDur& d) {
  const obs::Clock* clock = o.clock != nullptr ? o.clock : obs::RealClock();
  obs::TraceScope run_span(o.trace, "Pipeline::Run", "pipeline");
  obs::LogHistogram* comparisons =
      o.metrics != nullptr
          ? o.metrics->GetHistogram("pipeline.decision_comparisons")
          : nullptr;
  PipelineReport report;
  obs::LogHistogram latency;
  const uint64_t pruned_at_start = diversifier_->stats().pruned;
  const uint64_t run_start = clock->NowNanos();
  DebugPublisher publisher(o.debug, o.publish_interval_nanos);
  const int watchdog_task =
      o.watchdog != nullptr ? o.watchdog->RegisterTask("pipeline") : -1;
  Post post;
  while (source.Next(&post)) {
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
      // The pull loop has no arrival queue; "depth 1" while draining
      // keeps the stall rule armed, and end-of-source resets it below.
      o.watchdog->SetQueueDepth(watchdog_task, 1);
    }
    if (publisher.Due(end)) {
      const IngestStats& stats = diversifier_->stats();
      std::string status = "{";
      AppendStatusField(&status, "mode",
                        d.session != nullptr ? "durable" : "batch");
      AppendStatusField(&status, "posts_in", report.posts_in);
      AppendStatusField(&status, "posts_out", report.posts_out);
      AppendStatusField(&status, "comparisons", stats.comparisons);
      AppendStatusField(&status, "kernel",
                        kernels::GetKernelDispatchReport().active);
      if (d.session != nullptr) {
        AppendStatusField(&status, "wal_next_seq", d.session->next_seq());
      }
      status.push_back('}');
      publisher.Publish(end, o.metrics, diversifier_, {}, std::move(status));
    }
  }
  if (watchdog_task >= 0) o.watchdog->SetQueueDepth(watchdog_task, 0);
  const uint64_t wall_nanos = clock->NowNanos() - run_start;
  report.wall_ms = static_cast<double>(wall_nanos) / 1e6;
  report.decision_latency = latency.Summarize();
  if (o.metrics != nullptr) {
    o.metrics->GetCounter("pipeline.posts_in")->Add(report.posts_in);
    o.metrics->GetCounter("pipeline.posts_out")->Add(report.posts_out);
    o.metrics->GetCounter("pipeline.posts_suppressed")
        ->Add(report.posts_in - report.posts_out);
    o.metrics->GetHistogram("pipeline.decision_latency_ns", /*timing=*/true)
        ->MergeFrom(latency);
    o.metrics->GetGauge("pipeline.wall_ns", /*timing=*/true)
        ->Set(static_cast<int64_t>(wall_nanos));
    o.metrics->GetCounter("pipeline.candidates_pruned")
        ->Add(diversifier_->stats().pruned - pruned_at_start);
  }
  if (publisher.enabled()) {
    // Final snapshot: a post-drain scrape now matches the end-of-run
    // registry exactly.
    std::string status = "{";
    AppendStatusField(&status, "mode", "drained");
    AppendStatusField(&status, "posts_in", report.posts_in);
    AppendStatusField(&status, "posts_out", report.posts_out);
    AppendStatusField(&status, "kernel",
                      kernels::GetKernelDispatchReport().active);
    status.push_back('}');
    publisher.Publish(clock->NowNanos(), o.metrics, diversifier_, {},
                      std::move(status));
  }
  return report;
}

}  // namespace firehose
