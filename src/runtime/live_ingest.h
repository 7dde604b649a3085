#ifndef FIREHOSE_RUNTIME_LIVE_INGEST_H_
#define FIREHOSE_RUNTIME_LIVE_INGEST_H_

#include <cstdint>

#include "src/core/diversifier.h"
#include "src/obs/clock.h"
#include "src/obs/debug_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/stream/post.h"
#include "src/util/thread_annotations.h"

namespace firehose {

/// Configuration of a live replay run.
struct LiveIngestOptions {
  /// Replay a recorded day this many times faster than real time.
  /// 86,400x compresses a day into one second of wall time.
  double speedup = 100000.0;
  /// Arrival queue depth; when full, the producer blocks (models TCP
  /// backpressure against the upstream feed).
  size_t queue_capacity = 4096;
  /// Optional observability. `metrics` is touched from the consumer
  /// (calling) thread only: `live.posts_in/out`, `live.producer_blocked`
  /// counters, the `live.queue_depth` gauge (high-water = worst backlog)
  /// and timing-flagged queueing-latency/wall metrics. `trace` (which is
  /// thread-safe) gets producer (tid 1) and consumer (tid 0) spans.
  /// `clock` null means the real monotonic clock; release deadlines and
  /// latencies both flow through it.
  obs::MetricsRegistry* metrics FIREHOSE_THREAD_OWNED(consumer) = nullptr;
  obs::TraceRecorder* trace = nullptr;  // thread-safe, shared
  const obs::Clock* clock = nullptr;
  /// Live-introspection hooks (all optional). `debug` receives rendered
  /// snapshots from the consumer thread every `publish_interval_nanos`
  /// (the run registry itself is untouched, so final artifacts stay
  /// byte-identical to an unobserved run). `flight` records per-post
  /// decision spans (tid 0) and producer release instants (tid 1) into
  /// its lock-free rings. `watchdog` gets a "live.consumer" task; the
  /// producer co-publishes queue depth into the same slot, so a wedged
  /// consumer still trips the stall rule.
  obs::DebugState* debug = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::Watchdog* watchdog = nullptr;
  uint64_t publish_interval_nanos = 50'000'000;  // 50 ms
};

/// Result of a live replay.
struct LiveIngestReport {
  uint64_t posts_in = 0;
  uint64_t posts_out = 0;
  double wall_ms = 0.0;
  double achieved_posts_per_sec = 0.0;
  size_t queue_high_water = 0;       ///< worst backlog observed
  uint64_t producer_blocked = 0;     ///< pushes that had to retry
  obs::HistogramSummary queueing_latency;  ///< enqueue -> decision, ns
};

/// Two-thread live replay: a producer thread releases each post of
/// `stream` at its recorded timestamp (scaled by `speedup`) into an SPSC
/// queue; the consumer thread runs the diversifier. This exercises the
/// paper's real-time semantics — the decision must keep up with the
/// arrival rate — and measures how much backlog the algorithm accrues.
///
/// `diversifier` is used from the consumer thread only.
LiveIngestReport RunLiveIngest(Diversifier& diversifier,
                               const PostStream& stream,
                               const LiveIngestOptions& options);

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_LIVE_INGEST_H_
