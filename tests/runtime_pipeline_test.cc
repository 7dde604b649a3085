#include "src/runtime/pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/core/engine.h"
#include "src/io/http.h"
#include "src/obs/clock.h"
#include "src/obs/debug_server.h"
#include "src/obs/watchdog.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::PaperExampleGraph;
using testing_util::PaperExamplePosts;
using testing_util::PaperExampleThresholds;

TEST(PipelineTest, DeliversExactlyTheDiversifiedSubStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  PostStream delivered;
  CollectSink sink(&delivered);
  Pipeline pipeline(diversifier.get(), &sink);
  const PipelineReport report = pipeline.Run(stream);

  EXPECT_EQ(report.posts_in, 5u);
  EXPECT_EQ(report.posts_out, 3u);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0].id, 0u);  // P1
  EXPECT_EQ(delivered[1].id, 1u);  // P2
  EXPECT_EQ(delivered[2].id, 3u);  // P4
  EXPECT_EQ(report.decision_latency.count, 5u);
  EXPECT_GT(report.decision_latency.mean, 0.0);
}

TEST(PipelineTest, CountingSinkCounts) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kCliqueBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  pipeline.Run(stream);
  EXPECT_EQ(sink.count(), 3u);
}

TEST(PipelineTest, EmptyStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream empty;
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  const PipelineReport report = pipeline.Run(empty);
  EXPECT_EQ(report.posts_in, 0u);
  EXPECT_EQ(report.posts_out, 0u);
  EXPECT_EQ(sink.count(), 0u);
}

/// Decides as `inner` does, but holds its second Offer until Release.
class HoldingDiversifier final : public Diversifier {
 public:
  explicit HoldingDiversifier(std::unique_ptr<Diversifier> inner)
      : inner_(std::move(inner)) {}

  bool Offer(const Post& post) override {
    if (++offers_ == 2) {
      std::unique_lock<std::mutex> lock(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return inner_->Offer(post);
  }
  const IngestStats& stats() const override { return inner_->stats(); }
  size_t ApproxBytes() const override { return inner_->ApproxBytes(); }
  std::string_view name() const override { return inner_->name(); }

  /// True once the second Offer is held; false after 10 s without it.
  bool AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return held_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::unique_ptr<Diversifier> inner_;
  int offers_ = 0;  // the run's thread only
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
};

TEST(PipelineTest, HealthzNamesAHeldDecision) {
  // After its first decision an unpaced run's task reads depth 1, so a
  // second decision that never ends trips the watchdog, and /healthz,
  // which reads the watchdog it was given, names the run until it moves.
  // (A paced run sets depth 0 before each release, so it is not used.)
  constexpr uint64_t kStallNanos = 2'000'000'000;
  const AuthorGraph graph = PaperExampleGraph();
  HoldingDiversifier diversifier(
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph));
  obs::ManualClock clock;
  obs::Watchdog watchdog(kStallNanos, &clock);
  obs::DebugServer::Options debug_options;
  debug_options.watchdog = &watchdog;
  obs::DebugServer debug_server(debug_options);
  ASSERT_TRUE(debug_server.Start(/*port=*/0));
  PipelineObs o;
  o.watchdog = &watchdog;
  o.debug = debug_server.state();
  CountingSink sink;
  Pipeline pipeline(&diversifier, &sink);
  const PostStream stream = PaperExamplePosts();

  // No assertion may return while the run's thread lives: it must be
  // joined. The run registers its task, reading the ManualClock, before
  // its first Offer, so this thread moves the clock only once held.
  std::thread run([&] { pipeline.Run(stream, o); });
  const bool held = diversifier.AwaitHeld();
  EXPECT_TRUE(held);
  if (held) {
    EXPECT_EQ(watchdog.Poll(), 0);
    clock.AdvanceNanos(kStallNanos);
    EXPECT_EQ(watchdog.Poll(), 1);
    int status = 0;
    std::string body;
    EXPECT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 503);
    EXPECT_EQ(body, "pipeline stalled (depth 1, progress 1)\n");
  }
  diversifier.Release();
  run.join();

  EXPECT_EQ(watchdog.Poll(), 0);
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  debug_server.Stop();
}

/// `num_posts` posts by four authors, `spacing_ms` apart.
PostStream TimedStream(int num_posts, int64_t spacing_ms) {
  Rng rng(3);
  PostStream stream;
  for (int i = 0; i < num_posts; ++i) {
    Post post;
    post.id = static_cast<PostId>(i);
    post.author = static_cast<AuthorId>(i % 4);
    post.time_ms = static_cast<int64_t>(i) * spacing_ms;
    post.simhash = rng.Next();
    stream.push_back(post);
  }
  return stream;
}

TEST(PacedPipelineTest, MatchesOfflineDecisions) {
  // Pacing changes when a post is decided, never what is decided.
  const AuthorGraph graph = PaperExampleGraph();
  const DiversityThresholds t = PaperExampleThresholds();
  const PostStream stream = TimedStream(3000, 10);

  auto offline = MakeDiversifier(Algorithm::kCliqueBin, t, &graph);
  for (const Post& post : stream) offline->Offer(post);

  auto live = MakeDiversifier(Algorithm::kCliqueBin, t, &graph);
  CountingSink sink;
  Pipeline pipeline(live.get(), &sink, /*speedup=*/1e6);
  const PipelineReport report = pipeline.Run(stream);

  EXPECT_EQ(report.posts_in, 3000u);
  EXPECT_EQ(report.posts_out, offline->stats().posts_out);
  EXPECT_EQ(live->stats().comparisons, offline->stats().comparisons);
  EXPECT_EQ(report.lateness.count, 3000u);
}

TEST(PacedPipelineTest, RealTimePacingRoughlyHonorsSpeedup) {
  // 50 posts spaced 100ms apart = 4.9s of stream; at 100x it should take
  // roughly 49ms of wall time (generously bounded for CI noise).
  const AuthorGraph graph = PaperExampleGraph();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  const PostStream stream = TimedStream(50, 100);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink, /*speedup=*/100.0);
  const PipelineReport report = pipeline.Run(stream);
  EXPECT_GE(report.wall_ms, 30.0);
  EXPECT_LE(report.wall_ms, 2000.0);
  EXPECT_EQ(report.posts_in, 50u);
}

TEST(PacedPipelineTest, EveryDecisionEndsWithin50usOfItsRelease) {
  // At speedup 9.99, gaps of 1 ms and 50 ms of stream are waits of about
  // 100 us and 5 ms: a spin and a sleep. They are no whole number of
  // microseconds, so the clock, which advances 1 us a read, passes
  // releases at every phase; a wait that reads the clock twice per turn
  // then sees a release pass between its reads, sleeps a spurious 1 ms
  // on the wrapped gap and reads ~1 ms late.
  PostStream stream = TimedStream(200, 0);
  int64_t time_ms = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].time_ms = time_ms;
    time_ms += i % 2 == 0 ? 1 : 50;
  }
  const AuthorGraph graph = PaperExampleGraph();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  obs::ManualClock clock(/*start_nanos=*/0, /*auto_advance_nanos=*/1000);
  PipelineObs o;
  o.clock = &clock;
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink, /*speedup=*/9.99);
  const PipelineReport report = pipeline.Run(stream, o);

  EXPECT_EQ(report.lateness.count, 200u);
  EXPECT_LE(report.lateness.max, 50'000.0);
  // Every post was decided before the next one was released.
  EXPECT_EQ(report.backlog_high_water, 1u);
}

TEST(PacedPipelineTest, BurstOfOneTimestampReadsItsSizeAsBacklog) {
  const AuthorGraph graph = PaperExampleGraph();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  obs::ManualClock clock(/*start_nanos=*/0, /*auto_advance_nanos=*/1000);
  obs::MetricsRegistry metrics;
  PipelineObs o;
  o.clock = &clock;
  o.metrics = &metrics;
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink, /*speedup=*/1.0);
  const PipelineReport report = pipeline.Run(TimedStream(64, 0), o);

  EXPECT_EQ(report.backlog_high_water, 64u);
  EXPECT_EQ(metrics.GetGauge("pipeline.backlog", true)->high_water(), 64);
  EXPECT_EQ(metrics.GetHistogram("pipeline.lateness_ns", true)->count(), 64u);
  // The last post waited behind the other 63 decisions.
  EXPECT_GT(report.lateness.max, 63 * 2000.0);
}

/// Test clock whose sleeps also poll a watchdog, as a background poller
/// would while a paced run waits.
class PollingClock final : public obs::Clock {
 public:
  uint64_t NowNanos() const override { return now_nanos_ += 1000; }
  void SleepNanos(uint64_t nanos) const override {
    now_nanos_ += nanos;
    if (watchdog != nullptr) watchdog->Poll();
  }
  obs::Watchdog* watchdog = nullptr;

 private:
  mutable uint64_t now_nanos_ = 0;
};

TEST(PacedPipelineTest, WaitIsIdleToTheWatchdogAndStillPublishes) {
  // Two posts 10 s apart at speedup 1: a wait five times the watchdog's
  // stall time, during which the run must publish and must not trip.
  const AuthorGraph graph = PaperExampleGraph();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  PollingClock clock;
  obs::Watchdog watchdog(/*stall_nanos=*/2'000'000'000, &clock);
  clock.watchdog = &watchdog;
  obs::DebugState debug;
  PipelineObs o;
  o.clock = &clock;
  o.watchdog = &watchdog;
  o.debug = &debug;
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink, /*speedup=*/1.0);
  const PipelineReport report = pipeline.Run(TimedStream(2, 10'000), o);

  EXPECT_EQ(report.posts_in, 2u);
  EXPECT_EQ(watchdog.trip_count(), 0u);
  // One publication every 50 ms of the wait.
  EXPECT_GE(debug.publish_count(), 150u);
}

}  // namespace
}  // namespace firehose
