#ifndef FIREHOSE_RUNTIME_PIPELINE_H_
#define FIREHOSE_RUNTIME_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/diversifier.h"
#include "src/dur/durable.h"
#include "src/obs/clock.h"
#include "src/obs/debug_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/stream/post.h"

namespace firehose {

/// Optional observability hooks for a pipeline run. All pointers may be
/// null (the default), in which case the run is unobserved at close to
/// zero cost; `clock` null means the real monotonic clock. The struct is
/// plumbed rather than global so tests can inject a ManualClock and every
/// run can own a private registry.
struct PipelineObs {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  const obs::Clock* clock = nullptr;
  /// Live-introspection hooks (all optional, all null by default):
  /// `debug` receives rendered metric/status snapshots every
  /// `publish_interval_nanos` of run time — the run registry itself is
  /// never touched, so final artifacts stay byte-identical. `flight`
  /// gets always-on ring events on the same caller-assigned tids the
  /// tracer uses. `watchdog` gets a registered task with per-post
  /// progress reports and queue/backlog depth.
  obs::DebugState* debug = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::Watchdog* watchdog = nullptr;
  uint64_t publish_interval_nanos = 50'000'000;  // 50 ms
};

/// Optional durability hooks for a pipeline run. When `session` is set,
/// every post is routed through DurableSession::Process (WAL append, then
/// engine decision) instead of a bare Offer, and the checkpoint cadence is
/// honored between posts. All members may stay default for the ordinary
/// in-memory pipeline.
struct PipelineDur {
  dur::DurableSession* session = nullptr;

  /// Invoked after each processed (logged + decided) post — the seam the
  /// crash-recovery harness uses to kill the process at exact post counts.
  std::function<void()> after_post;

  /// Invoked when the session says a checkpoint is due. The callee must
  /// flush + fsync the output stream and call session->Checkpoint() with
  /// its durable size. Returning false aborts the run with io_error.
  std::function<bool()> checkpoint;
};

/// Terminal stage receiving the diversified sub-stream.
class PostSink {
 public:
  virtual ~PostSink() = default;
  virtual void Deliver(const Post& post) = 0;
};

/// Sink that appends to a vector (tests, examples).
class CollectSink final : public PostSink {
 public:
  explicit CollectSink(PostStream* out) : out_(out) {}
  void Deliver(const Post& post) override { out_->push_back(post); }

 private:
  PostStream* out_;
};

/// Sink that counts deliveries without storing them (benchmarks).
class CountingSink final : public PostSink {
 public:
  void Deliver(const Post&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Summary of one pipeline run.
struct PipelineReport {
  uint64_t posts_in = 0;
  uint64_t posts_out = 0;
  double wall_ms = 0.0;
  obs::HistogramSummary decision_latency;  ///< per-post Offer latency, ns
  /// Paced runs only: each post's decision end minus its release, ns.
  obs::HistogramSummary lateness;
  /// Paced runs only: the most posts released but not yet decided when a
  /// decision began, the post it decides included.
  uint64_t backlog_high_water = 0;
  /// True when a durability hook failed (WAL append or checkpoint); the
  /// run stopped at that post and the rest of the stream is undecided.
  bool io_error = false;
};

/// Single-user real-time pipeline (the SPSD deployment of Figure 1a):
/// stream -> diversifier -> sink, instrumented with per-decision latency.
/// This is the "Twitter app of a user" shape — the diversifier runs
/// client-side on the user's merged subscription stream.
class Pipeline {
 public:
  /// `diversifier` and `sink` must outlive Run(). A positive `speedup`
  /// paces the run (see Run); 0 decides each post as soon as the one
  /// before it is decided.
  Pipeline(Diversifier* diversifier, PostSink* sink, double speedup = 0.0)
      : diversifier_(diversifier), sink_(sink), speedup_(speedup) {}

  /// Decides `stream` in order, delivering admitted posts to the sink.
  /// Latency histogram samples every post's decision time. When
  /// `o.metrics` is set, records `pipeline.posts_in/out/suppressed`
  /// counters, the deterministic `pipeline.decision_comparisons`
  /// histogram (one sample per post), and timing-flagged latency/wall
  /// metrics; `o.trace` gets a run span. With `d.session`, the run starts
  /// at post `d.session->next_seq()` and decisions run through the
  /// durability layer (see PipelineDur).
  ///
  /// Paced, each post is released `speedup` times faster than its
  /// timestamp's distance from the run's first post, and the run waits on
  /// `o.clock` for each release, still publishing to `o.debug`, with its
  /// watchdog task at depth 0. It then reports each post's lateness and
  /// the backlog (the timing-flagged `pipeline.lateness_ns` histogram and
  /// `pipeline.backlog` gauge): the numbers of one consumer draining an
  /// unbounded arrival queue, deterministic under a ManualClock.
  PipelineReport Run(const PostStream& stream, const PipelineObs& o = {},
                     const PipelineDur& d = {});

 private:
  Diversifier* diversifier_;
  PostSink* sink_;
  double speedup_;
};

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_PIPELINE_H_
