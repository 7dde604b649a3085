// End-to-end live-introspection smoke test: starts the real
// firehose_diversify binary with --live --debug_port=0, parses the
// announced port from its stdout, scrapes every debug endpoint while the
// replay is still running, and then reconciles the mid-stream snapshots
// against the final --metrics_out artifact:
//
//   every scraped engine counter is <= its final value (monotonicity)
//   each scrape is internally consistent: posts_in == posts_out + pruned
//   /statusz carries the build stamp and the paced run's block
//   /tracez returns Chrome trace_event JSON while spans keep landing

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/firehose.h"

#ifndef FIREHOSE_DIVERSIFY_BIN
#error "FIREHOSE_DIVERSIFY_BIN must point at the firehose_diversify binary"
#endif

namespace firehose {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t JsonUint(const std::string& json, const std::string& key,
                  bool* found) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) {
    *found = false;
    return 0;
  }
  *found = true;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

uint64_t RequireUint(const std::string& json, const std::string& key) {
  bool found = false;
  const uint64_t value = JsonUint(json, key, &found);
  EXPECT_TRUE(found) << "key missing: " << key << "\nin: " << json;
  return value;
}

class DebugServerSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SocialGraphOptions social_options;
    social_options.num_authors = 300;
    social_options.num_communities = 10;
    social_options.avg_followees = 20.0;
    social_options.seed = 515;
    const FollowGraph social = GenerateSocialGraph(social_options);
    std::vector<AuthorId> authors;
    for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
    const auto similarities = AllPairsSimilarity(social, authors, 0.05);
    AuthorGraph graph =
        AuthorGraph::FromSimilarities(authors, similarities, 0.7);

    StreamGenOptions stream_options;
    stream_options.posts_per_author = 12.0;
    stream_options.seed = 616;
    const SimHasher hasher;
    const PostStream stream = GenerateStream(graph, hasher, stream_options);
    ASSERT_GT(stream.size(), 1000u);

    ASSERT_TRUE(SaveAuthorGraph(graph, kGraphPath));
    ASSERT_TRUE(SavePostStream(stream, kStreamPath));
  }

  void TearDown() override {
    for (const char* path :
         {kGraphPath, kStreamPath, kMetricsPath, kOutPath}) {
      std::remove(path);
    }
  }

  static constexpr const char* kGraphPath = "debug_smoke_graph.bin";
  static constexpr const char* kStreamPath = "debug_smoke_stream.bin";
  static constexpr const char* kMetricsPath = "debug_smoke_metrics.json";
  static constexpr const char* kOutPath = "debug_smoke_out.bin";
};

TEST_F(DebugServerSmokeTest, MidStreamScrapesReconcileWithFinalSnapshot) {
  // 24h of stream at 40000x is ~2.2s of wall clock: long enough that the
  // scrapes below land mid-replay, short enough for a unit-test budget.
  const std::string command =
      std::string("\"") + FIREHOSE_DIVERSIFY_BIN + "\" --graph=" + kGraphPath +
      " --stream=" + kStreamPath +
      " --algorithm=cliquebin --live --speedup=40000 --debug_port=0" +
      " --metrics_out=" + kMetricsPath + " --out=" + kOutPath +
      " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);

  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), pipe), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(
                line, "debug server listening on http://127.0.0.1:%d", &port),
            1)
      << "unexpected first line: " << line;
  ASSERT_GT(port, 0);

  // Scrape all four endpoints while the replay runs. The port is
  // announced before the pipeline starts, so retry /varz until the
  // first publish lands (the first decision forces one).
  int status = 0;
  std::string varz_mid;
  std::vector<std::string> varz_scrapes;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(HttpGet(port, "/varz", &status, &varz_mid));
    EXPECT_EQ(status, 200);
    if (varz_mid.find("engine.posts_in") != std::string::npos) break;
  }
  ASSERT_NE(varz_mid.find("engine.posts_in"), std::string::npos);
  varz_scrapes.push_back(varz_mid);

  std::string prom_mid;
  ASSERT_TRUE(HttpGet(port, "/metricsz", &status, &prom_mid));
  EXPECT_EQ(status, 200);
  EXPECT_NE(prom_mid.find("# TYPE firehose_"), std::string::npos);

  std::string statusz;
  ASSERT_TRUE(HttpGet(port, "/statusz", &status, &statusz));
  EXPECT_EQ(status, 200);
  EXPECT_NE(statusz.find("\"build\": \""), std::string::npos);
  EXPECT_NE(statusz.find("\"uptime_ms\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"watchdog\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"mode\": \"live\""), std::string::npos);
  EXPECT_NE(statusz.find("\"backlog\": "), std::string::npos);

  std::string tracez;
  ASSERT_TRUE(HttpGet(port, "/tracez", &status, &tracez));
  EXPECT_EQ(status, 200);
  EXPECT_NE(tracez.find("\"traceEvents\":["), std::string::npos);

  // A second varz scrape a moment later: counters may only grow.
  std::string varz_later;
  ASSERT_TRUE(HttpGet(port, "/varz", &status, &varz_later));
  varz_scrapes.push_back(varz_later);

  // Drain the process to completion.
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
  }
  ASSERT_EQ(pclose(pipe), 0);

  const std::string final_snapshot = Slurp(kMetricsPath);
  ASSERT_FALSE(final_snapshot.empty());
  const uint64_t final_in = RequireUint(final_snapshot, "engine.posts_in");
  const uint64_t final_out = RequireUint(final_snapshot, "engine.posts_out");
  const uint64_t final_pruned =
      RequireUint(final_snapshot, "engine.posts_pruned");
  ASSERT_GT(final_in, 0u);
  EXPECT_EQ(final_in, final_out + final_pruned);

  for (const std::string& varz : varz_scrapes) {
    // Internally consistent: a snapshot never mixes two instants.
    const uint64_t in = RequireUint(varz, "engine.posts_in");
    const uint64_t out = RequireUint(varz, "engine.posts_out");
    const uint64_t pruned = RequireUint(varz, "engine.posts_pruned");
    EXPECT_EQ(in, out + pruned) << varz;
    // Monotone: a mid-stream value never exceeds the final artifact.
    EXPECT_LE(in, final_in);
    EXPECT_LE(out, final_out);
    EXPECT_LE(pruned, final_pruned);
  }
  // The two ordered scrapes are themselves monotone.
  EXPECT_LE(RequireUint(varz_scrapes[0], "engine.posts_in"),
            RequireUint(varz_scrapes[1], "engine.posts_in"));

  // The final artifact is untouched by observation: schema intact, no
  // timing keys (those appear only in live scrapes).
  EXPECT_NE(final_snapshot.find("\"schema\": \"firehose.metrics.v1\""),
            std::string::npos);
}

TEST_F(DebugServerSmokeTest, FatalSignalMidStreamLeavesFlightTrace) {
  const char* kTracePath = "debug_smoke_crash_trace.json";
  std::remove(kTracePath);
  // `echo $$; exec ...` exposes the binary's pid as the first stdout
  // line (the shell exec-replaces itself), so the test can deliver a
  // real SIGSEGV mid-replay.
  const std::string command =
      std::string("echo $$; exec \"") + FIREHOSE_DIVERSIFY_BIN +
      "\" --graph=" + kGraphPath + " --stream=" + kStreamPath +
      " --algorithm=cliquebin --live --speedup=40000 --debug_port=0" +
      " --crash_trace_out=" + kTracePath + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);

  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), pipe), nullptr);
  const long pid = std::strtol(line, nullptr, 10);
  ASSERT_GT(pid, 0);
  ASSERT_NE(std::fgets(line, sizeof(line), pipe), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(
                line, "debug server listening on http://127.0.0.1:%d", &port),
            1);

  // Let the replay decide a few posts so the rings hold real spans, then
  // crash it. The very first publish can land before any post (posts_in
  // still 0 — common under sanitizers), so wait for a NONZERO count.
  std::string varz;
  int status = 0;
  bool found = false;
  for (int i = 0; i < 2000; ++i) {
    if (HttpGet(port, "/varz", &status, &varz) &&
        JsonUint(varz, "engine.posts_in", &found) > 0) {
      break;
    }
  }
  EXPECT_GT(JsonUint(varz, "engine.posts_in", &found), 0u) << varz;
  ASSERT_EQ(std::system(
                ("kill -SEGV " + std::to_string(pid) + " 2>/dev/null").c_str()),
            0);
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
  }
  const int exit_status = pclose(pipe);
  // The handler re-raises with the default disposition: the process
  // died of SIGSEGV, it did not exit cleanly.
  EXPECT_NE(exit_status, 0);

  // The crash handler left a well-formed Chrome trace behind.
  const std::string trace = Slurp(kTracePath);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\""), std::string::npos);
  EXPECT_EQ(trace.substr(trace.size() - 3), "]}\n");
  std::remove(kTracePath);
}

}  // namespace
}  // namespace firehose
