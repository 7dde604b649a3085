#include "src/runtime/live_ingest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/kernels/dispatch.h"
#include "src/runtime/introspect.h"
#include "src/runtime/spsc_queue.h"
#include "src/util/timer.h"

namespace firehose {

namespace {

struct QueuedPost {
  const Post* post = nullptr;
  uint64_t enqueue_nanos = 0;
};

}  // namespace

LiveIngestReport RunLiveIngest(Diversifier& diversifier,
                               const PostStream& stream,
                               const LiveIngestOptions& options) {
  LiveIngestReport report;
  if (stream.empty()) return report;

  const obs::Clock& clock =
      options.clock != nullptr ? *options.clock : *obs::RealClock();
  SpscQueue<QueuedPost> queue(options.queue_capacity);
  std::atomic<bool> producer_done{false};
  std::atomic<uint64_t> blocked{0};

  WallTimer timer;
  const uint64_t start_nanos = clock.NowNanos();
  const int64_t first_time_ms = stream.front().time_ms;

  // Register the stall-detector slot before the producer spawns so both
  // threads report into it: the consumer its progress, the producer the
  // queue depth — a fully wedged consumer stops reporting, but the
  // producer keeps the depth fresh and the watchdog still trips.
  const int watchdog_task =
      options.watchdog != nullptr
          ? options.watchdog->RegisterTask("live.consumer")
          : -1;

  std::thread producer([&] {
    obs::TraceScope span(options.trace, "LiveIngest.produce", "ingest",
                         /*tid=*/1);
    for (const Post& post : stream) {
      // Release the post at its scaled timestamp.
      const double offset_ms =
          static_cast<double>(post.time_ms - first_time_ms) / options.speedup;
      const uint64_t due =
          start_nanos + static_cast<uint64_t>(offset_ms * 1e6);
      while (clock.NowNanos() < due) {
        // Sub-millisecond gaps: spin; larger gaps: sleep.
        if (due - clock.NowNanos() > 2000000) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      QueuedPost item{&post, clock.NowNanos()};
      while (!queue.TryPush(item)) {
        blocked.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        item.enqueue_nanos = clock.NowNanos();
      }
      if (options.flight != nullptr) {
        options.flight->RecordComplete(/*tid=*/1, "release", "live", due,
                                       item.enqueue_nanos);
      }
      if (watchdog_task >= 0) {
        options.watchdog->SetQueueDepth(
            watchdog_task, static_cast<int64_t>(queue.ApproxSize()));
      }
    }
    producer_done.store(true, std::memory_order_release);
  });

  // The consumer runs on the calling thread and is the only thread that
  // touches `options.metrics` (the producer reports through atomics).
  obs::Gauge* queue_depth =
      options.metrics != nullptr
          ? options.metrics->GetGauge("live.queue_depth")
          : nullptr;
  obs::LogHistogram latency;
  size_t high_water = 0;
  QueuedPost item;
  DebugPublisher publisher(options.debug, options.publish_interval_nanos);
  // Renders the consumer's in-flight view of the run for the publisher:
  // live.* counters the run registry only receives after the drain.
  auto augment = [&](obs::MetricsRegistry* snapshot) {
    snapshot->GetCounter("live.posts_in")->Add(report.posts_in);
    snapshot->GetCounter("live.posts_out")->Add(report.posts_out);
    snapshot->GetCounter("live.producer_blocked")
        ->Add(blocked.load(std::memory_order_relaxed));
  };
  auto publish = [&](uint64_t now) {
    std::string status = "{";
    AppendStatusField(&status, "mode", "live");
    AppendStatusField(&status, "posts_in", report.posts_in);
    AppendStatusField(&status, "posts_out", report.posts_out);
    AppendStatusField(&status, "queue_depth",
                      static_cast<uint64_t>(queue.ApproxSize()));
    AppendStatusField(&status, "queue_high_water",
                      static_cast<uint64_t>(high_water));
    AppendStatusField(&status, "producer_blocked",
                      blocked.load(std::memory_order_relaxed));
    AppendStatusField(&status, "kernel",
                      kernels::GetKernelDispatchReport().active);
    status.push_back('}');
    publisher.Publish(now, options.metrics, &diversifier, augment,
                      std::move(status));
  };
  auto decide = [&](const Post& post) {
    ++report.posts_in;
    if (diversifier.Offer(post)) ++report.posts_out;
    if (watchdog_task >= 0) {
      options.watchdog->ReportProgress(watchdog_task, report.posts_in);
    }
  };
  {
    obs::TraceScope span(options.trace, "LiveIngest.consume", "ingest",
                         /*tid=*/0);
    for (;;) {
      if (queue.TryPop(&item)) {
        const size_t depth = queue.ApproxSize() + 1;
        high_water = std::max(high_water, depth);
        if (queue_depth != nullptr) {
          queue_depth->Set(static_cast<int64_t>(depth));
        }
        if (watchdog_task >= 0) {
          options.watchdog->SetQueueDepth(watchdog_task,
                                          static_cast<int64_t>(depth) - 1);
        }
        decide(*item.post);
        const uint64_t now = clock.NowNanos();
        latency.Record(now - item.enqueue_nanos);
        if (options.flight != nullptr) {
          options.flight->RecordComplete(/*tid=*/0, "decide", "live",
                                         item.enqueue_nanos, now);
        }
        if (publisher.Due(now)) publish(now);
      } else if (producer_done.load(std::memory_order_acquire)) {
        // Drain anything pushed between the last pop and the flag.
        if (!queue.TryPop(&item)) break;
        decide(*item.post);
        latency.Record(clock.NowNanos() - item.enqueue_nanos);
      } else {
        if (publisher.enabled()) {
          const uint64_t now = clock.NowNanos();
          if (publisher.Due(now)) publish(now);
        }
        std::this_thread::yield();
      }
    }
  }
  producer.join();
  if (watchdog_task >= 0) options.watchdog->SetQueueDepth(watchdog_task, 0);

  report.wall_ms = timer.ElapsedMillis();
  report.achieved_posts_per_sec =
      report.wall_ms > 0.0
          ? static_cast<double>(report.posts_in) / (report.wall_ms / 1000.0)
          : 0.0;
  report.queue_high_water = high_water;
  // Relaxed: the producer thread has been joined, so this is the only
  // thread touching the counter; no ordering to establish.
  report.producer_blocked = blocked.load(std::memory_order_relaxed);
  report.queueing_latency = latency.Summarize();
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("live.posts_in")->Add(report.posts_in);
    options.metrics->GetCounter("live.posts_out")->Add(report.posts_out);
    options.metrics->GetCounter("live.producer_blocked")
        ->Add(report.producer_blocked);
    if (queue_depth != nullptr) queue_depth->Set(0);  // drained
    options.metrics
        ->GetHistogram("live.queueing_latency_ns", /*timing=*/true)
        ->MergeFrom(latency);
    options.metrics->GetGauge("live.wall_ns", /*timing=*/true)
        ->Set(static_cast<int64_t>(
            clock.NowNanos() - start_nanos));
  }
  if (publisher.enabled()) {
    // Final snapshot after the run registry absorbed the live.* totals:
    // the augment lambda must not run again or the counters would double.
    std::string status = "{";
    AppendStatusField(&status, "mode", "drained");
    AppendStatusField(&status, "posts_in", report.posts_in);
    AppendStatusField(&status, "posts_out", report.posts_out);
    AppendStatusField(&status, "queue_high_water",
                      static_cast<uint64_t>(high_water));
    AppendStatusField(&status, "kernel",
                      kernels::GetKernelDispatchReport().active);
    status.push_back('}');
    publisher.Publish(clock.NowNanos(), options.metrics, &diversifier, {},
                      std::move(status));
  }
  return report;
}

}  // namespace firehose
