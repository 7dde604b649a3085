#include "src/author/clique_cover.h"

#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace firehose {
namespace {

// Checks the three structural invariants of a valid cover for `graph`:
// every clique is complete, every edge is covered, every vertex appears.
void ExpectValidCover(const CliqueCover& cover, const AuthorGraph& graph) {
  std::set<std::pair<AuthorId, AuthorId>> covered_edges;
  for (const auto& clique : cover.cliques()) {
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(graph.IsNeighbor(clique[i], clique[j]))
            << "clique not complete: " << clique[i] << "," << clique[j];
        covered_edges.insert({clique[i], clique[j]});
      }
    }
  }
  for (AuthorId u : graph.vertices()) {
    EXPECT_FALSE(cover.CliquesOf(u).empty()) << "vertex uncovered: " << u;
    for (AuthorId v : graph.Neighbors(u)) {
      if (u < v) {
        EXPECT_TRUE(covered_edges.count({u, v}) > 0)
            << "edge uncovered: " << u << "," << v;
      }
    }
  }
}

// The Author2Cliques reference: ascending ids of the cliques holding `a`.
std::vector<CliqueId> CliquesHolding(const CliqueCover& cover, AuthorId a) {
  std::vector<CliqueId> ids;
  for (size_t id = 0; id < cover.num_cliques(); ++id) {
    const std::vector<AuthorId>& clique = cover.cliques()[id];
    if (std::find(clique.begin(), clique.end(), a) != clique.end()) {
      ids.push_back(static_cast<CliqueId>(id));
    }
  }
  return ids;
}

std::vector<CliqueId> AsVector(std::span<const CliqueId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(CliqueCoverTest, TriangleBecomesOneClique) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2}, {{0, 1}, {0, 2}, {1, 2}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.num_cliques(), 1u);
  EXPECT_EQ(cover.cliques()[0], (std::vector<AuthorId>{0, 1, 2}));
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, PaperFigure6cCover) {
  // Figure 5a graph: triangle {a1,a2,a3} + edge {a3,a4}; the paper's cover
  // is C0 = {a1,a2,a3}, C1 = {a3,a4} (ids shifted down by one).
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.num_cliques(), 2u);
  EXPECT_EQ(cover.cliques()[0], (std::vector<AuthorId>{0, 1, 2}));
  EXPECT_EQ(cover.cliques()[1], (std::vector<AuthorId>{2, 3}));
  // a3 (id 2) belongs to both cliques; others to exactly one.
  EXPECT_EQ(cover.CliquesOf(2).size(), 2u);
  EXPECT_EQ(cover.CliquesOf(0).size(), 1u);
  EXPECT_EQ(cover.CliquesOf(3).size(), 1u);
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, IsolatedVerticesGetSingletons) {
  const AuthorGraph g = AuthorGraph::FromEdges({0, 1, 5}, {{0, 1}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.CliquesOf(5).size(), 1u);
  const CliqueId singleton = cover.CliquesOf(5)[0];
  EXPECT_EQ(cover.cliques()[singleton], (std::vector<AuthorId>{5}));
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, EmptyGraph) {
  const CliqueCover cover = CliqueCover::Greedy(AuthorGraph());
  EXPECT_EQ(cover.num_cliques(), 0u);
  EXPECT_TRUE(cover.CliquesOf(0).empty());
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 0.0);
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 0.0);
}

TEST(CliqueCoverTest, PathGraphUsesEdgeCliques) {
  // A path 0-1-2-3 has no triangles: cover must be the 3 edges.
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  EXPECT_EQ(cover.num_cliques(), 3u);
  EXPECT_EQ(cover.TotalCliqueSize(), 6u);
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, CompleteGraphIsOneClique) {
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  std::vector<AuthorId> vertices;
  for (AuthorId i = 0; i < 6; ++i) {
    vertices.push_back(i);
    for (AuthorId j = i + 1; j < 6; ++j) edges.emplace_back(i, j);
  }
  const CliqueCover cover =
      CliqueCover::Greedy(AuthorGraph::FromEdges(vertices, edges));
  EXPECT_EQ(cover.num_cliques(), 1u);
  EXPECT_EQ(cover.cliques()[0].size(), 6u);
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 1.0);
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 6.0);
}

TEST(CliqueCoverTest, StatsOnPaperGraph) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  EXPECT_EQ(cover.TotalCliqueSize(), 5u);               // 3 + 2
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 1.25);  // 5 memberships / 4
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 2.5);
  EXPECT_GT(cover.ApproxBytes(), 0u);
}

TEST(CliqueCoverTest, FromUnsortedCliquesIndexesEveryMember) {
  const CliqueCover cover = CliqueCover::FromCliques(
      {{5, 2, 9}, {7, 2}, {9, 5}, {3}, {9, 7, 2}}, 6);
  EXPECT_EQ(cover.cliques()[0], (std::vector<AuthorId>{2, 5, 9}));
  EXPECT_EQ(AsVector(cover.CliquesOf(2)), (std::vector<CliqueId>{0, 1, 4}));
  EXPECT_EQ(AsVector(cover.CliquesOf(9)), (std::vector<CliqueId>{0, 2, 4}));
  EXPECT_EQ(AsVector(cover.CliquesOf(3)), (std::vector<CliqueId>{3}));
  for (AuthorId a = 0; a <= 10; ++a) {
    EXPECT_EQ(AsVector(cover.CliquesOf(a)), CliquesHolding(cover, a)) << a;
  }
  EXPECT_TRUE(cover.CliquesOf(4).empty());
  EXPECT_TRUE(cover.CliquesOf(0xFFFFFFFFu).empty());
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 11.0 / 6.0);
}

TEST(CliqueCoverTest, DeterministicAcrossRuns) {
  const AuthorGraph g = AuthorGraph::FromEdges(
      {0, 1, 2, 3, 4}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}});
  const CliqueCover a = CliqueCover::Greedy(g);
  const CliqueCover b = CliqueCover::Greedy(g);
  EXPECT_EQ(a.cliques(), b.cliques());
}

class RandomGraphCoverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphCoverTest, GreedyCoverIsAlwaysValid) {
  Rng rng(GetParam());
  const int n = 40;
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (AuthorId i = 0; i < n; ++i) vertices.push_back(i);
  for (AuthorId i = 0; i < n; ++i) {
    for (AuthorId j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.15)) edges.emplace_back(i, j);
    }
  }
  const AuthorGraph g = AuthorGraph::FromEdges(vertices, edges);
  const CliqueCover cover = CliqueCover::Greedy(g);
  ExpectValidCover(cover, g);
  // Sanity of the §4.4 accounting: total memberships = Σ clique sizes.
  uint64_t memberships = 0;
  for (AuthorId a : g.vertices()) memberships += cover.CliquesOf(a).size();
  EXPECT_EQ(memberships, cover.TotalCliqueSize());
  // Author2Cliques lists exactly the cliques holding each author; ids past
  // the last vertex are in none.
  for (AuthorId a = 0; a < n + 3; ++a) {
    EXPECT_EQ(AsVector(cover.CliquesOf(a)), CliquesHolding(cover, a)) << a;
  }
  EXPECT_TRUE(cover.CliquesOf(n).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCoverTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace firehose
