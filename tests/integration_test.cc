// End-to-end integration: synthetic social graph -> author similarity ->
// similarity graph + clique cover -> one-day stream -> all SPSD and M-SPSD
// engines, cross-checked for agreement and for the paper's qualitative
// relationships.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/firehose.h"

namespace firehose {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SocialGraphOptions graph_options;
    graph_options.num_authors = 300;
    graph_options.num_communities = 10;
    graph_options.avg_followees = 25.0;
    graph_options.seed = 2016;
    social_ = new FollowGraph(GenerateSocialGraph(graph_options));

    std::vector<AuthorId> authors;
    for (AuthorId a = 0; a < social_->num_authors(); ++a) {
      authors.push_back(a);
    }
    const auto pairs = AllPairsSimilarity(*social_, authors, 0.3);
    graph_ = new AuthorGraph(
        AuthorGraph::FromSimilarities(authors, pairs, 0.7));
    cover_ = new CliqueCover(CliqueCover::Greedy(*graph_));

    StreamGenOptions stream_options;
    stream_options.duration_ms = 4 * 3600 * 1000;
    stream_options.posts_per_author = 10.0;
    stream_options.cross_author_dup_prob = 0.15;
    stream_options.seed = 7;
    const SimHasher hasher;
    stream_ = new PostStream(GenerateStream(*graph_, hasher, stream_options));
  }

  static void TearDownTestSuite() {
    delete stream_;
    delete cover_;
    delete graph_;
    delete social_;
  }

  static DiversityThresholds Thresholds() {
    DiversityThresholds t;
    t.lambda_c = 18;
    t.lambda_t_ms = 30 * 60 * 1000;
    t.lambda_a = 0.7;
    return t;
  }

  static FollowGraph* social_;
  static AuthorGraph* graph_;
  static CliqueCover* cover_;
  static PostStream* stream_;
};

FollowGraph* IntegrationFixture::social_ = nullptr;
AuthorGraph* IntegrationFixture::graph_ = nullptr;
CliqueCover* IntegrationFixture::cover_ = nullptr;
PostStream* IntegrationFixture::stream_ = nullptr;

TEST_F(IntegrationFixture, PipelineProducesNonTrivialStructures) {
  EXPECT_GT(graph_->num_edges(), 0u);
  EXPECT_GT(cover_->num_cliques(), 0u);
  EXPECT_GT(stream_->size(), 2000u);
}

TEST_F(IntegrationFixture, AllAlgorithmsEmitIdenticalSubStream) {
  std::vector<PostId> outputs[3];
  int i = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto diversifier = MakeDiversifier(algorithm, Thresholds(), graph_,
                                       algorithm == Algorithm::kCliqueBin
                                           ? cover_
                                           : nullptr);
    RunDiversifier(*diversifier, *stream_, &outputs[i]);
    ++i;
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
  EXPECT_FALSE(outputs[0].empty());
}

TEST_F(IntegrationFixture, DiversificationPrunesButKeepsMostPosts) {
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, Thresholds(), graph_);
  const RunResult result = RunDiversifier(*diversifier, *stream_);
  EXPECT_LT(result.posts_out, result.posts_in);
  EXPECT_GT(result.SurvivorRatio(), 0.5);
  EXPECT_LT(result.SurvivorRatio(), 1.0);
}

TEST_F(IntegrationFixture, Table3WorkTradeoffsHold) {
  RunResult results[3];
  int i = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto diversifier = MakeDiversifier(algorithm, Thresholds(), graph_,
                                       algorithm == Algorithm::kCliqueBin
                                           ? cover_
                                           : nullptr);
    results[i++] = RunDiversifier(*diversifier, *stream_);
  }
  const RunResult& unibin = results[0];
  const RunResult& neighbor = results[1];
  const RunResult& clique = results[2];
  // Comparisons: UniBin >= CliqueBin >= NeighborBin (Table 3).
  EXPECT_GT(unibin.comparisons, neighbor.comparisons);
  EXPECT_GE(clique.comparisons, neighbor.comparisons);
  // Insertions/RAM: NeighborBin >= CliqueBin >= UniBin.
  EXPECT_GT(neighbor.insertions, clique.insertions);
  EXPECT_GE(clique.insertions, unibin.insertions);
  EXPECT_GT(neighbor.peak_bytes, unibin.peak_bytes);
}

TEST_F(IntegrationFixture, DimensionAblationGrowsOutput) {
  // Figure 10's direction: disabling a dimension can only shrink Z
  // (coverage becomes easier), so the full 3-D model keeps the most posts.
  DiversityThresholds full = Thresholds();
  DiversityThresholds no_content = Thresholds();
  no_content.use_content = false;
  DiversityThresholds no_author = Thresholds();
  no_author.use_author = false;

  uint64_t out_full = 0;
  uint64_t out_no_content = 0;
  uint64_t out_no_author = 0;
  {
    auto d = MakeDiversifier(Algorithm::kUniBin, full, graph_);
    out_full = RunDiversifier(*d, *stream_).posts_out;
  }
  {
    auto d = MakeDiversifier(Algorithm::kUniBin, no_content, graph_);
    out_no_content = RunDiversifier(*d, *stream_).posts_out;
  }
  {
    auto d = MakeDiversifier(Algorithm::kUniBin, no_author, graph_);
    out_no_author = RunDiversifier(*d, *stream_).posts_out;
  }
  EXPECT_GT(out_full, out_no_content);
  EXPECT_GT(out_full, out_no_author);
}

TEST_F(IntegrationFixture, WiderTimeWindowPrunesMore) {
  DiversityThresholds narrow = Thresholds();
  narrow.lambda_t_ms = 60 * 1000;
  DiversityThresholds wide = Thresholds();
  wide.lambda_t_ms = 2 * 3600 * 1000;
  auto d_narrow = MakeDiversifier(Algorithm::kUniBin, narrow, graph_);
  auto d_wide = MakeDiversifier(Algorithm::kUniBin, wide, graph_);
  const uint64_t out_narrow = RunDiversifier(*d_narrow, *stream_).posts_out;
  const uint64_t out_wide = RunDiversifier(*d_wide, *stream_).posts_out;
  EXPECT_LE(out_wide, out_narrow);
}

TEST_F(IntegrationFixture, MultiUserEnginesAgreeEndToEnd) {
  // Every 10th author is also a user following its graph neighbors.
  std::vector<User> users;
  UserId next = 0;
  for (AuthorId a = 0; a < 300; a += 10) {
    std::vector<AuthorId> subs = graph_->Neighbors(a);
    subs.push_back(a);
    users.push_back(User{next++, subs});
  }
  auto m_engine =
      MakeMUserEngine(Algorithm::kUniBin, Thresholds(), *graph_, users);
  auto s_engine =
      MakeSUserEngine(Algorithm::kUniBin, Thresholds(), *graph_, users);
  std::vector<std::pair<PostId, UserId>> m_deliveries;
  std::vector<std::pair<PostId, UserId>> s_deliveries;
  const MultiUserRunResult m_result =
      RunMultiUser(*m_engine, *stream_, &m_deliveries);
  const MultiUserRunResult s_result =
      RunMultiUser(*s_engine, *stream_, &s_deliveries);
  EXPECT_EQ(m_deliveries, s_deliveries);
  EXPECT_EQ(m_result.deliveries, s_result.deliveries);
  // Shared components can only reduce work.
  EXPECT_LE(s_result.comparisons, m_result.comparisons);
  EXPECT_LE(s_result.insertions, m_result.insertions);
  EXPECT_LE(s_engine->num_diversifiers(),
            m_engine->num_diversifiers() * users.size());
}

TEST_F(IntegrationFixture, AuthorSimilarityDistributionShapedLikeFigure9) {
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social_->num_authors(); ++a) authors.push_back(a);
  const auto pairs = AllPairsSimilarity(*social_, authors, 0.01);
  const double total_pairs =
      static_cast<double>(authors.size()) * (authors.size() - 1) / 2;
  uint64_t ge02 = 0;
  uint64_t ge03 = 0;
  for (const auto& pair : pairs) {
    if (pair.similarity >= 0.2) ++ge02;
    if (pair.similarity >= 0.3) ++ge03;
  }
  const double frac02 = ge02 / total_pairs;
  const double frac03 = ge03 / total_pairs;
  // Figure 9's shape: a few percent of pairs ≥ 0.2, fewer ≥ 0.3.
  EXPECT_GT(frac02, 0.001);
  EXPECT_LT(frac02, 0.3);
  EXPECT_LT(frac03, frac02);
}

TEST(AlgorithmFlagTest, ParseAlgorithmAcceptsTheThreeSpellings) {
  Algorithm algorithm = Algorithm::kCliqueBin;
  ASSERT_TRUE(ParseAlgorithm("unibin", &algorithm));
  EXPECT_EQ(algorithm, Algorithm::kUniBin);
  ASSERT_TRUE(ParseAlgorithm("neighborbin", &algorithm));
  EXPECT_EQ(algorithm, Algorithm::kNeighborBin);
  ASSERT_TRUE(ParseAlgorithm("cliquebin", &algorithm));
  EXPECT_EQ(algorithm, Algorithm::kCliqueBin);
  // The printable name is not a flag spelling; a rejection leaves the
  // value alone.
  EXPECT_FALSE(ParseAlgorithm("UniBin", &algorithm));
  EXPECT_EQ(algorithm, Algorithm::kCliqueBin);
}

}  // namespace
}  // namespace firehose
