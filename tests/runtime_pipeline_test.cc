#include "src/runtime/pipeline.h"

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::PaperExampleGraph;
using testing_util::PaperExamplePosts;
using testing_util::PaperExampleThresholds;

TEST(VectorSourceTest, YieldsAllPostsThenStops) {
  const PostStream stream = PaperExamplePosts();
  VectorSource source(&stream);
  Post post;
  size_t count = 0;
  while (source.Next(&post)) {
    EXPECT_EQ(post.id, count);
    ++count;
  }
  EXPECT_EQ(count, stream.size());
  EXPECT_FALSE(source.Next(&post));  // stays exhausted
}

TEST(PipelineTest, DeliversExactlyTheDiversifiedSubStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  PostStream delivered;
  CollectSink sink(&delivered);
  Pipeline pipeline(diversifier.get(), &sink);
  VectorSource source(&stream);
  const PipelineReport report = pipeline.Run(source);

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
  VectorSource source(&stream);
  pipeline.Run(source);
  EXPECT_EQ(sink.count(), 3u);
}

TEST(PipelineTest, EmptyStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream empty;
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  VectorSource source(&empty);
  const PipelineReport report = pipeline.Run(source);
  EXPECT_EQ(report.posts_in, 0u);
  EXPECT_EQ(report.posts_out, 0u);
  EXPECT_EQ(sink.count(), 0u);
}

}  // namespace
}  // namespace firehose
