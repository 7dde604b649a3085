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

/// Pull-based post source feeding a pipeline. Sources deliver posts in
/// non-decreasing timestamp order and return false when exhausted.
class PostSource {
 public:
  virtual ~PostSource() = default;
  /// Fills `*post` with the next post; false at end of stream.
  [[nodiscard]] virtual bool Next(Post* post) = 0;
};

/// Source over an in-memory stream (replay of a recorded day).
class VectorSource final : public PostSource {
 public:
  /// `stream` must outlive the source. `start_index` lets a recovered run
  /// resume feeding at its replay point (posts before it are already in
  /// the engine via checkpoint + WAL replay).
  explicit VectorSource(const PostStream* stream, size_t start_index = 0)
      : stream_(stream), index_(start_index) {}
  bool Next(Post* post) override {
    if (index_ >= stream_->size()) return false;
    *post = (*stream_)[index_++];
    return true;
  }

 private:
  const PostStream* stream_;
  size_t index_ = 0;
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
  /// True when a durability hook failed (WAL append or checkpoint); the
  /// run stopped at that post and the remaining source is undrained.
  bool io_error = false;
};

/// Single-user real-time pipeline (the SPSD deployment of Figure 1a):
/// source -> diversifier -> sink, instrumented with per-decision latency.
/// This is the "Twitter app of a user" shape — the diversifier runs
/// client-side on the user's merged subscription stream.
class Pipeline {
 public:
  /// `diversifier` and `sink` must outlive Run().
  Pipeline(Diversifier* diversifier, PostSink* sink)
      : diversifier_(diversifier), sink_(sink) {}

  /// Drains `source` to completion, delivering admitted posts to the
  /// sink. Latency histogram samples every post's decision time. When
  /// `o.metrics` is set, records `pipeline.posts_in/out/suppressed`
  /// counters, the deterministic `pipeline.decision_comparisons`
  /// histogram (one sample per post), and timing-flagged latency/wall
  /// metrics; `o.trace` gets a run span. With `d.session`, decisions run
  /// through the durability layer (see PipelineDur).
  PipelineReport Run(PostSource& source, const PipelineObs& o = {},
                     const PipelineDur& d = {});

 private:
  Diversifier* diversifier_;
  PostSink* sink_;
};

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_PIPELINE_H_
