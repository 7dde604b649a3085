#include "src/runtime/pipeline.h"

#include <algorithm>

#include "src/core/kernels/dispatch.h"
#include "src/obs/log.h"
#include "src/runtime/introspect.h"

namespace firehose {

namespace {

// A paced wait spins while its release is at most this far off, so the
// post is released on time, and sleeps a millisecond at a time before.
constexpr uint64_t kSpinNanos = 2'000'000;
constexpr uint64_t kSleepNanos = 1'000'000;

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
  DebugPublisher publisher(o.debug, o.publish_interval_nanos);
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
  auto publish = [&](uint64_t now) {
    std::string status = "{";
    AppendStatusField(&status, "mode", mode);
    AppendStatusField(&status, "posts_in", report.posts_in);
    AppendStatusField(&status, "posts_out", report.posts_out);
    AppendStatusField(&status, "comparisons",
                      diversifier_->stats().comparisons);
    if (paced) AppendStatusField(&status, "backlog", backlog);
    AppendStatusField(&status, "kernel",
                      kernels::GetKernelDispatchReport().active);
    if (d.session != nullptr) {
      AppendStatusField(&status, "wal_next_seq", d.session->next_seq());
    }
    status.push_back('}');
    publisher.Publish(now, o.metrics, diversifier_, {}, std::move(status));
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
      // One clock read per iteration: the gap below is never negative.
      for (; now < release; now = clock->NowNanos()) {
        if (publisher.Due(now)) publish(now);
        if (release - now > kSpinNanos) clock->SleepNanos(kSleepNanos);
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
    if (publisher.Due(end)) publish(end);
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
