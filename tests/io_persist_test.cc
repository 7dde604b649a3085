#include "src/io/persist.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include <gtest/gtest.h>

#include "src/core/clique_bin.h"
#include "src/gen/social_graph_gen.h"
#include "src/gen/stream_gen.h"
#include "src/io/binary.h"

namespace firehose {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

class PersistFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SocialGraphOptions options;
    options.num_authors = 150;
    options.num_communities = 5;
    options.avg_followees = 15.0;
    options.seed = 8;
    social_ = GenerateSocialGraph(options);
    for (AuthorId a = 0; a < social_.num_authors(); ++a) authors_.push_back(a);
    similarities_ = AllPairsSimilarity(social_, authors_, 0.1);
    graph_ = AuthorGraph::FromSimilarities(authors_, similarities_, 0.8);
    cover_ = CliqueCover::Greedy(graph_);

    StreamGenOptions stream_options;
    stream_options.duration_ms = 600 * 1000;
    stream_options.posts_per_author = 3.0;
    stream_options.seed = 9;
    const SimHasher hasher;
    stream_ = GenerateStream(graph_, hasher, stream_options);
  }

  FollowGraph social_;
  std::vector<AuthorId> authors_;
  std::vector<AuthorPairSimilarity> similarities_;
  AuthorGraph graph_;
  CliqueCover cover_;
  PostStream stream_;
};

TEST_F(PersistFixture, FollowGraphRoundTrip) {
  const std::string path = TempPath("follow.bin");
  ASSERT_TRUE(SaveFollowGraph(social_, path));
  FollowGraph loaded;
  ASSERT_TRUE(LoadFollowGraph(path, &loaded));
  ASSERT_EQ(loaded.num_authors(), social_.num_authors());
  EXPECT_EQ(loaded.num_edges(), social_.num_edges());
  for (AuthorId a = 0; a < social_.num_authors(); ++a) {
    EXPECT_EQ(loaded.Followees(a), social_.Followees(a));
    EXPECT_EQ(loaded.Followers(a), social_.Followers(a));
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, SimilaritiesRoundTrip) {
  const std::string path = TempPath("sims.bin");
  ASSERT_TRUE(SaveSimilarities(similarities_, path));
  std::vector<AuthorPairSimilarity> loaded;
  ASSERT_TRUE(LoadSimilarities(path, &loaded));
  ASSERT_EQ(loaded.size(), similarities_.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].a, similarities_[i].a);
    EXPECT_EQ(loaded[i].b, similarities_[i].b);
    EXPECT_NEAR(loaded[i].similarity, similarities_[i].similarity, 1e-8);
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, AuthorGraphRoundTrip) {
  const std::string path = TempPath("author_graph.bin");
  ASSERT_TRUE(SaveAuthorGraph(graph_, path));
  AuthorGraph loaded;
  ASSERT_TRUE(LoadAuthorGraph(path, &loaded));
  EXPECT_EQ(loaded.vertices(), graph_.vertices());
  EXPECT_EQ(loaded.num_edges(), graph_.num_edges());
  for (AuthorId a : graph_.vertices()) {
    EXPECT_EQ(loaded.Neighbors(a), graph_.Neighbors(a));
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, CliqueCoverRoundTrip) {
  const std::string path = TempPath("cover.bin");
  ASSERT_TRUE(SaveCliqueCover(cover_, graph_.num_vertices(), path));
  CliqueCover loaded;
  ASSERT_TRUE(LoadCliqueCover(path, &loaded));
  EXPECT_EQ(loaded.cliques(), cover_.cliques());
  EXPECT_DOUBLE_EQ(loaded.AvgCliquesPerAuthor(), cover_.AvgCliquesPerAuthor());
  EXPECT_TRUE(loaded.IsValidFor(graph_));
  // The reloaded Author2Cliques index answers like the original, also for
  // an author past the last vertex.
  for (AuthorId a = 0; a <= social_.num_authors(); ++a) {
    const std::span<const CliqueId> want = cover_.CliquesOf(a);
    const std::span<const CliqueId> got = loaded.CliquesOf(a);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "author " << a;
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, PostStreamBinaryRoundTrip) {
  const std::string path = TempPath("stream.bin");
  ASSERT_TRUE(SavePostStream(stream_, path));
  PostStream loaded;
  ASSERT_TRUE(LoadPostStream(path, &loaded));
  ASSERT_EQ(loaded.size(), stream_.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id, stream_[i].id);
    EXPECT_EQ(loaded[i].author, stream_[i].author);
    EXPECT_EQ(loaded[i].time_ms, stream_[i].time_ms);
    EXPECT_EQ(loaded[i].simhash, stream_[i].simhash);
    EXPECT_EQ(loaded[i].text, stream_[i].text);
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, PostStreamTsvRoundTrip) {
  const std::string path = TempPath("stream.tsv");
  ASSERT_TRUE(SavePostStreamTsv(stream_, path));
  PostStream loaded;
  ASSERT_TRUE(LoadPostStreamTsv(path, &loaded));
  ASSERT_EQ(loaded.size(), stream_.size());
  for (size_t i = 0; i < loaded.size(); i += 11) {
    EXPECT_EQ(loaded[i].id, stream_[i].id);
    EXPECT_EQ(loaded[i].author, stream_[i].author);
    EXPECT_EQ(loaded[i].time_ms, stream_[i].time_ms);
    EXPECT_EQ(loaded[i].simhash, stream_[i].simhash);
    EXPECT_EQ(loaded[i].text, stream_[i].text);
  }
  std::remove(path.c_str());
}

TEST_F(PersistFixture, TsvSanitizesTabsAndNewlines) {
  PostStream stream;
  Post post;
  post.id = 0;
  post.author = 1;
  post.time_ms = 5;
  post.simhash = 0xABC;
  post.text = "tab\there\nnewline";
  stream.push_back(post);
  const std::string path = TempPath("dirty.tsv");
  ASSERT_TRUE(SavePostStreamTsv(stream, path));
  PostStream loaded;
  ASSERT_TRUE(LoadPostStreamTsv(path, &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].text, "tab here newline");
  std::remove(path.c_str());
}

TEST_F(PersistFixture, TsvSkipsMalformedLines) {
  const std::string path = TempPath("mixed.tsv");
  ASSERT_TRUE(WriteFileAtomic(
      path,
      "id\tauthor\ttime_ms\tsimhash\ttext\n"
      "0\t1\t100\tdeadbeef\tvalid post\n"
      "garbage line without tabs\n"
      "x\ty\tz\tw\tbroken numbers\n"
      "1\t2\t200\tcafe\tanother valid\n"));
  PostStream loaded;
  ASSERT_TRUE(LoadPostStreamTsv(path, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].text, "valid post");
  EXPECT_EQ(loaded[1].simhash, 0xcafeu);
  std::remove(path.c_str());
}

TEST_F(PersistFixture, LoadRejectsWrongMagic) {
  const std::string path = TempPath("wrong_magic.bin");
  ASSERT_TRUE(SaveFollowGraph(social_, path));
  AuthorGraph graph;
  EXPECT_FALSE(LoadAuthorGraph(path, &graph));  // follow-graph magic
  CliqueCover cover;
  EXPECT_FALSE(LoadCliqueCover(path, &cover));
  std::remove(path.c_str());
}

TEST_F(PersistFixture, LoadRejectsTruncation) {
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(SavePostStream(stream_, path));
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data));
  data.resize(data.size() / 2);
  ASSERT_TRUE(WriteFileAtomic(path, data));
  PostStream loaded;
  EXPECT_FALSE(LoadPostStream(path, &loaded));
  EXPECT_TRUE(loaded.empty());  // output untouched
  std::remove(path.c_str());
}

TEST_F(PersistFixture, LoadRejectsTrailingGarbage) {
  const std::string path = TempPath("trailing.bin");
  ASSERT_TRUE(SaveAuthorGraph(graph_, path));
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data));
  data += "extra";
  ASSERT_TRUE(WriteFileAtomic(path, data));
  AuthorGraph loaded;
  EXPECT_FALSE(LoadAuthorGraph(path, &loaded));
  std::remove(path.c_str());
}

TEST_F(PersistFixture, MissingFilesFail) {
  FollowGraph follow;
  AuthorGraph graph;
  CliqueCover cover;
  PostStream stream;
  std::vector<AuthorPairSimilarity> sims;
  EXPECT_FALSE(LoadFollowGraph("/no/such/file", &follow));
  EXPECT_FALSE(LoadAuthorGraph("/no/such/file", &graph));
  EXPECT_FALSE(LoadCliqueCover("/no/such/file", &cover));
  EXPECT_FALSE(LoadPostStream("/no/such/file", &stream));
  EXPECT_FALSE(LoadPostStreamTsv("/no/such/file", &stream));
  EXPECT_FALSE(LoadSimilarities("/no/such/file", &sims));
}

TEST_F(PersistFixture, EndToEndReloadedPipelineMatches) {
  // Diversify with in-memory structures, then with reloaded ones: the
  // outputs must be identical.
  const std::string graph_path = TempPath("e2e_graph.bin");
  const std::string cover_path = TempPath("e2e_cover.bin");
  const std::string stream_path = TempPath("e2e_stream.bin");
  ASSERT_TRUE(SaveAuthorGraph(graph_, graph_path));
  ASSERT_TRUE(SaveCliqueCover(cover_, graph_.num_vertices(), cover_path));
  ASSERT_TRUE(SavePostStream(stream_, stream_path));

  AuthorGraph graph2;
  CliqueCover cover2;
  PostStream stream2;
  ASSERT_TRUE(LoadAuthorGraph(graph_path, &graph2));
  ASSERT_TRUE(LoadCliqueCover(cover_path, &cover2));
  ASSERT_TRUE(LoadPostStream(stream_path, &stream2));

  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = 5 * 60 * 1000;
  CliqueBinDiversifier original(t, &cover_);
  CliqueBinDiversifier reloaded(t, &cover2);
  std::vector<PostId> out_original;
  std::vector<PostId> out_reloaded;
  for (const Post& post : stream_) {
    if (original.Offer(post)) out_original.push_back(post.id);
  }
  for (const Post& post : stream2) {
    if (reloaded.Offer(post)) out_reloaded.push_back(post.id);
  }
  EXPECT_EQ(out_original, out_reloaded);

  std::remove(graph_path.c_str());
  std::remove(cover_path.c_str());
  std::remove(stream_path.c_str());
}

}  // namespace
}  // namespace firehose
