#include "src/obs/debug_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/io/http.h"
#include "src/obs/clock.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"
#include "src/util/build_info.h"

namespace firehose {
namespace obs {
namespace {

std::string Fetch(const DebugServer& server, const std::string& path,
                  int* status) {
  std::string body;
  EXPECT_TRUE(HttpGet(server.port(), path, status, &body)) << path;
  return body;
}

TEST(DebugStateTest, PublishesAndReadsBackSnapshots) {
  DebugState state;
  EXPECT_EQ(state.publish_count(), 0u);
  EXPECT_TRUE(state.metrics_prometheus().empty());

  state.PublishMetrics("prom-bytes", "varz-bytes");
  state.PublishStatus("{\"mode\": \"live\"}");
  EXPECT_EQ(state.metrics_prometheus(), "prom-bytes");
  EXPECT_EQ(state.varz_json(), "varz-bytes");
  EXPECT_EQ(state.status_json(), "{\"mode\": \"live\"}");
  EXPECT_EQ(state.publish_count(), 1u);

  // A later publish fully replaces the previous snapshot.
  state.PublishMetrics("prom-2", "varz-2");
  EXPECT_EQ(state.metrics_prometheus(), "prom-2");
  EXPECT_EQ(state.publish_count(), 2u);
}

TEST(DebugServerTest, HealthzAndUnknownRoute) {
  DebugServer server;
  ASSERT_TRUE(server.Start(0));
  int status = 0;
  EXPECT_EQ(Fetch(server, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);

  // A published problem turns the probe unhealthy until it is cleared.
  server.state()->PublishHealth("wal failed (2 refused)");
  EXPECT_EQ(Fetch(server, "/healthz", &status), "wal failed (2 refused)\n");
  EXPECT_EQ(status, 503);
  server.state()->PublishHealth("");
  EXPECT_EQ(Fetch(server, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);

  const std::string missing = Fetch(server, "/definitely-not-a-route",
                                    &status);
  EXPECT_EQ(status, 404);
  EXPECT_NE(missing.find("/statusz"), std::string::npos);
  server.Stop();
}

TEST(DebugServerTest, HealthzJoinsThePublishedProblemAndTrippedTasks) {
  ManualClock clock(0);
  Watchdog watchdog(1'000'000'000, &clock);
  const int task = watchdog.RegisterTask("consumer");
  watchdog.ReportProgress(task, 12);
  watchdog.SetQueueDepth(task, 3);
  EXPECT_EQ(watchdog.Poll(), 0);  // the progress moved: re-armed
  clock.AdvanceNanos(1'000'000'000);
  EXPECT_EQ(watchdog.Poll(), 1);

  DebugServer::Options options;
  options.watchdog = &watchdog;
  DebugServer server(options);
  DebugServer unwatched;
  ASSERT_TRUE(server.Start(0));
  ASSERT_TRUE(unwatched.Start(0));
  int status = 0;
  EXPECT_EQ(Fetch(server, "/healthz", &status),
            "consumer stalled (depth 3, progress 12)\n");
  EXPECT_EQ(status, 503);

  // The published problem comes first; a server without a watchdog
  // serves only it.
  server.state()->PublishHealth("wal failed (2 refused)");
  unwatched.state()->PublishHealth("wal failed (2 refused)");
  EXPECT_EQ(Fetch(server, "/healthz", &status),
            "wal failed (2 refused); consumer stalled (depth 3, progress 12)\n");
  EXPECT_EQ(status, 503);
  EXPECT_EQ(Fetch(unwatched, "/healthz", &status), "wal failed (2 refused)\n");
  EXPECT_EQ(status, 503);

  // The task clears at the first Poll after it moves again.
  watchdog.ReportProgress(task, 13);
  EXPECT_EQ(watchdog.Poll(), 0);
  EXPECT_EQ(Fetch(server, "/healthz", &status), "wal failed (2 refused)\n");
  server.state()->PublishHealth("");
  EXPECT_EQ(Fetch(server, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
  server.Stop();
  unwatched.Stop();
}

TEST(DebugServerTest, MetricszAndVarzServeLatestPublish) {
  DebugServer server;
  ASSERT_TRUE(server.Start(0));

  int status = 0;
  // Before the first publish: empty exposition, "{}" JSON.
  EXPECT_EQ(Fetch(server, "/metricsz", &status), "");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(Fetch(server, "/varz", &status), "{}\n");

  MetricsRegistry registry;
  registry.GetCounter("live.posts_in")->Add(41);
  server.state()->PublishMetrics(ExportPrometheus(registry),
                                 ExportJson(registry));
  const std::string prom = Fetch(server, "/metricsz", &status);
  EXPECT_NE(prom.find("firehose_live_posts_in 41"), std::string::npos);
  const std::string varz = Fetch(server, "/varz", &status);
  EXPECT_NE(varz.find("\"firehose.metrics.v1\""), std::string::npos);
  EXPECT_NE(varz.find("\"live.posts_in\": 41"), std::string::npos);
  server.Stop();
}

TEST(DebugServerTest, StatuszCarriesBuildUptimeWatchdogAndRuntime) {
  ManualClock clock(0);
  Watchdog watchdog(1'000'000'000, &clock);
  const int task = watchdog.RegisterTask("consumer");
  watchdog.ReportProgress(task, 12);
  watchdog.SetQueueDepth(task, 3);

  DebugServer::Options options;
  options.clock = &clock;
  options.watchdog = &watchdog;
  DebugServer server(options);
  ASSERT_TRUE(server.Start(0));
  server.state()->PublishStatus("{\"mode\": \"live\", \"posts_in\": 7}");
  clock.AdvanceNanos(1'500'000'000);

  int status = 0;
  const std::string body = Fetch(server, "/statusz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"build\": \"" + std::string(kBuildVersion)),
            std::string::npos);
  EXPECT_NE(body.find("\"uptime_ms\": 1500"), std::string::npos);
  EXPECT_NE(body.find("\"watchdog\": {\"trips\": 0"), std::string::npos);
  EXPECT_NE(body.find("{\"name\": \"consumer\", \"progress\": 12, "
                      "\"depth\": 3, \"stalled\": false}"),
            std::string::npos);
  EXPECT_NE(body.find("\"runtime\": {\"mode\": \"live\", \"posts_in\": 7}"),
            std::string::npos);
  server.Stop();
}

TEST(DebugServerTest, TracezIs404WithoutARecorder) {
  SetGlobalFlightRecorder(nullptr);
  DebugServer server;
  ASSERT_TRUE(server.Start(0));
  int status = 0;
  Fetch(server, "/tracez", &status);
  EXPECT_EQ(status, 404);
  server.Stop();
}

TEST(DebugServerTest, TracezDumpsTheConfiguredRecorderWithWindow) {
  ManualClock clock(0);
  const auto flight = std::make_unique<FlightRecorder>(&clock);
  flight->RecordComplete(0, "old", "t", 0, 1000);
  flight->RecordComplete(0, "fresh", "t", 60'000'000'000ull,
                         60'000'001'000ull);

  DebugServer::Options options;
  options.flight = flight.get();
  DebugServer server(options);
  ASSERT_TRUE(server.Start(0));

  int status = 0;
  // Default window is 30s anchored at the newest event: "old" drops.
  const std::string recent = Fetch(server, "/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(recent.find("\"name\":\"fresh\""), std::string::npos);
  EXPECT_EQ(recent.find("\"name\":\"old\""), std::string::npos);

  // window_s=0 asks for everything retained.
  const std::string all = Fetch(server, "/tracez?window_s=0", &status);
  EXPECT_NE(all.find("\"name\":\"old\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"fresh\""), std::string::npos);
  server.Stop();
}

TEST(DebugServerTest, ScrapesAreInternallyConsistentAcrossPublishes) {
  DebugServer server;
  ASSERT_TRUE(server.Start(0));
  // Two counters published in lockstep: any scrape must see them equal,
  // never a half-applied update.
  for (int round = 1; round <= 20; ++round) {
    MetricsRegistry registry;
    registry.GetCounter("a")->Add(static_cast<uint64_t>(round));
    registry.GetCounter("b")->Add(static_cast<uint64_t>(round));
    server.state()->PublishMetrics(ExportPrometheus(registry),
                                   ExportJson(registry));
    int status = 0;
    const std::string varz = Fetch(server, "/varz", &status);
    EXPECT_NE(varz.find("\"a\": " + std::to_string(round)),
              std::string::npos)
        << varz;
    EXPECT_NE(varz.find("\"b\": " + std::to_string(round)),
              std::string::npos)
        << varz;
  }
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace firehose
