// End-to-end observability smoke test: builds a small workload with the
// library, runs the real firehose_diversify binary (path injected by
// CMake as FIREHOSE_DIVERSIFY_BIN) with --metrics_out / --trace_out, and
// checks that the exported snapshot reconciles with itself:
//
//   engine.posts_in == engine.posts_out + engine.posts_pruned
//   pipeline.decision_comparisons histogram count == engine.posts_in
//   repeated identical runs -> byte-identical metrics snapshots
//   a --live run -> the batch run's snapshot bytes
//   the trace file is Chrome trace_event JSON ("traceEvents")

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

/// Value of `"key": <integer>` in a firehose.metrics.v1 JSON snapshot.
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
  EXPECT_TRUE(found) << "metric missing from snapshot: " << key;
  return value;
}

class MetricsSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small but non-trivial workload (a few thousand posts, real graph).
    SocialGraphOptions social_options;
    social_options.num_authors = 300;
    social_options.num_communities = 10;
    social_options.avg_followees = 20.0;
    social_options.seed = 4242;
    const FollowGraph social = GenerateSocialGraph(social_options);
    std::vector<AuthorId> authors;
    for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
    const auto similarities = AllPairsSimilarity(social, authors, 0.05);
    AuthorGraph graph =
        AuthorGraph::FromSimilarities(authors, similarities, 0.7);

    StreamGenOptions stream_options;
    stream_options.posts_per_author = 12.0;
    stream_options.seed = 99;
    const SimHasher hasher;
    const PostStream stream = GenerateStream(graph, hasher, stream_options);
    ASSERT_GT(stream.size(), 1000u);

    ASSERT_TRUE(SaveAuthorGraph(graph, kGraphPath));
    ASSERT_TRUE(SavePostStream(stream, kStreamPath));
  }

  void TearDown() override {
    for (const char* path :
         {kGraphPath, kStreamPath, "metrics_smoke_m1.json",
          "metrics_smoke_m2.json", "metrics_smoke_t.json"}) {
      std::remove(path);
    }
  }

  int RunDiversify(const std::string& extra_flags) {
    const std::string command = std::string("\"") + FIREHOSE_DIVERSIFY_BIN +
                                "\" --graph=" + kGraphPath +
                                " --stream=" + kStreamPath + " " +
                                extra_flags + " > /dev/null 2>&1";
    return std::system(command.c_str());
  }

  static constexpr const char* kGraphPath = "metrics_smoke_graph.bin";
  static constexpr const char* kStreamPath = "metrics_smoke_stream.bin";
};

TEST_F(MetricsSmokeTest, CountersReconcileAndSnapshotsAreByteStable) {
  ASSERT_EQ(RunDiversify("--algorithm=cliquebin "
                         "--metrics_out=metrics_smoke_m1.json "
                         "--trace_out=metrics_smoke_t.json"),
            0);
  const std::string snapshot = Slurp("metrics_smoke_m1.json");
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("\"schema\": \"firehose.metrics.v1\""),
            std::string::npos);

  // Post conservation: every offered post is either delivered or pruned.
  const uint64_t posts_in = RequireUint(snapshot, "engine.posts_in");
  const uint64_t posts_out = RequireUint(snapshot, "engine.posts_out");
  const uint64_t pruned = RequireUint(snapshot, "engine.posts_pruned");
  ASSERT_GT(posts_in, 0u);
  EXPECT_EQ(posts_in, posts_out + pruned);

  // The pipeline saw the same stream the engine counted.
  EXPECT_EQ(RequireUint(snapshot, "pipeline.posts_in"), posts_in);
  EXPECT_EQ(RequireUint(snapshot, "pipeline.posts_out"), posts_out);

  // One decision-comparisons sample per post.
  const size_t hist = snapshot.find("\"pipeline.decision_comparisons\"");
  ASSERT_NE(hist, std::string::npos);
  bool found = false;
  const uint64_t hist_count =
      JsonUint(snapshot.substr(hist), "count", &found);
  ASSERT_TRUE(found);
  EXPECT_EQ(hist_count, posts_in);
  // ... and their sum is the engine's total comparison count.
  const uint64_t hist_sum = JsonUint(snapshot.substr(hist), "sum", &found);
  ASSERT_TRUE(found);
  EXPECT_EQ(hist_sum, RequireUint(snapshot, "engine.comparisons"));

  // The trace is Chrome trace_event JSON with the pipeline span.
  const std::string trace = Slurp("metrics_smoke_t.json");
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"Pipeline::Run\""), std::string::npos);

  // Identical inputs export identical bytes (timing metrics dropped).
  ASSERT_EQ(RunDiversify("--algorithm=cliquebin "
                         "--metrics_out=metrics_smoke_m2.json"),
            0);
  EXPECT_EQ(snapshot, Slurp("metrics_smoke_m2.json"));
}

TEST_F(MetricsSmokeTest, LiveRunExportsTheBatchSnapshot) {
  // A paced run decides what a batch run decides; its lateness and
  // backlog are timing metrics, which the JSON snapshot drops.
  ASSERT_EQ(RunDiversify("--algorithm=cliquebin "
                         "--metrics_out=metrics_smoke_m1.json"),
            0);
  ASSERT_EQ(RunDiversify("--algorithm=cliquebin --live --speedup=1e9 "
                         "--metrics_out=metrics_smoke_m2.json"),
            0);
  const std::string batch = Slurp("metrics_smoke_m1.json");
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(Slurp("metrics_smoke_m2.json"), batch);
}

TEST_F(MetricsSmokeTest, UniBinSnapshotReconcilesToo) {
  ASSERT_EQ(RunDiversify("--algorithm=unibin "
                         "--metrics_out=metrics_smoke_m1.json"),
            0);
  const std::string snapshot = Slurp("metrics_smoke_m1.json");
  const uint64_t posts_in = RequireUint(snapshot, "engine.posts_in");
  EXPECT_EQ(posts_in, RequireUint(snapshot, "engine.posts_out") +
                          RequireUint(snapshot, "engine.posts_pruned"));
  // UniBin keeps one bin; occupancy gauges must say so.
  const size_t bins = snapshot.find("\"engine.bins\"");
  ASSERT_NE(bins, std::string::npos);
  bool found = false;
  EXPECT_EQ(JsonUint(snapshot.substr(bins), "value", &found), 1u);
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace firehose
