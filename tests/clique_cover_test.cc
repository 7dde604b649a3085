#include "src/author/clique_cover.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/author/follow_graph.h"
#include "src/author/similarity.h"
#include "src/core/multi_user.h"
#include "src/gen/social_graph_gen.h"
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

// The ApproxBytes every S_* peak_bytes bench key was recorded with:
// each clique's capacity and vector, then 4 bytes per Author2Cliques
// entry at exact capacity, that is one per covered author, one per
// covered author plus one of offsets, and one per membership.
size_t ExpectedApproxBytes(const CliqueCover& cover) {
  size_t bytes = 0;
  std::set<AuthorId> authors;
  for (const std::vector<AuthorId>& clique : cover.cliques()) {
    bytes += clique.capacity() * sizeof(AuthorId) + sizeof(clique);
    authors.insert(clique.begin(), clique.end());
  }
  return bytes +
         4 * (authors.size() + (authors.size() + 1) + cover.TotalCliqueSize());
}

// The greedy of §4.3 as first written, over a hash set of covered edges,
// kept as the reference the dense-index CliqueCover::Greedy must equal
// clique for clique, order included.
std::vector<std::vector<AuthorId>> ReferenceGreedy(const AuthorGraph& graph) {
  const auto edge_key = [](AuthorId a, AuthorId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  const auto intersect = [](const std::vector<AuthorId>& a,
                            const std::vector<AuthorId>& b) {
    std::vector<AuthorId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  };
  std::vector<std::vector<AuthorId>> cliques;
  std::unordered_set<uint64_t> covered;
  for (AuthorId u : graph.vertices()) {
    for (AuthorId v : graph.Neighbors(u)) {
      if (v < u || covered.count(edge_key(u, v)) > 0) continue;
      std::vector<AuthorId> clique = {u, v};
      std::vector<AuthorId> candidates =
          intersect(graph.Neighbors(u), graph.Neighbors(v));
      while (!candidates.empty()) {
        AuthorId best = candidates.front();
        int best_gain = -1;
        for (AuthorId cand : candidates) {
          int gain = 0;
          for (AuthorId member : clique) {
            if (covered.count(edge_key(cand, member)) == 0) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best = cand;
          }
        }
        clique.push_back(best);
        candidates = intersect(candidates, graph.Neighbors(best));
        candidates.erase(
            std::remove(candidates.begin(), candidates.end(), best),
            candidates.end());
      }
      std::sort(clique.begin(), clique.end());
      for (size_t i = 0; i < clique.size(); ++i) {
        for (size_t j = i + 1; j < clique.size(); ++j) {
          covered.insert(edge_key(clique[i], clique[j]));
        }
      }
      cliques.push_back(std::move(clique));
    }
  }
  for (AuthorId a : graph.vertices()) {
    if (graph.Neighbors(a).empty()) cliques.push_back({a});
  }
  return cliques;
}

// Greedy equals the reference, and each clique's capacity equals the
// reference's, so ApproxBytes (and every peak_bytes bench key) is
// unchanged too.
void ExpectGreedyEqualsReference(const AuthorGraph& graph) {
  const CliqueCover cover = CliqueCover::Greedy(graph);
  const std::vector<std::vector<AuthorId>> reference = ReferenceGreedy(graph);
  ASSERT_EQ(cover.cliques(), reference);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(cover.cliques()[i].capacity(), reference[i].capacity()) << i;
  }
  EXPECT_EQ(cover.ApproxBytes(), ExpectedApproxBytes(cover));
}

// Greedy over a vertex subset equals Greedy over the subgraph the subset
// induces: the same cliques in the same order, the same `c` statistic
// (ids of the subset that are no vertex count as isolated authors) and
// the same Author2Cliques map.
void ExpectSubsetCoverEqualsSubgraphCover(const AuthorGraph& graph,
                                          const std::vector<AuthorId>& subset) {
  const CliqueCover cover = CliqueCover::Greedy(graph, subset);
  const CliqueCover reference =
      CliqueCover::Greedy(graph.InducedSubgraph(subset));
  ASSERT_EQ(cover.cliques(), reference.cliques());
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(),
                   reference.AvgCliquesPerAuthor());
  for (AuthorId a : subset) {
    EXPECT_EQ(AsVector(cover.CliquesOf(a)), AsVector(reference.CliquesOf(a)))
        << a;
  }
  EXPECT_EQ(cover.ApproxBytes(), ExpectedApproxBytes(cover));
  EXPECT_EQ(cover.ApproxBytes(), reference.ApproxBytes());
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
  EXPECT_EQ(cover.ApproxBytes(), ExpectedApproxBytes(cover));
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
  EXPECT_EQ(cover.ApproxBytes(), ExpectedApproxBytes(cover));
  // Author2Cliques lists exactly the cliques holding each author; ids past
  // the last vertex are in none.
  for (AuthorId a = 0; a < n + 3; ++a) {
    EXPECT_EQ(AsVector(cover.CliquesOf(a)), CliquesHolding(cover, a)) << a;
  }
  EXPECT_TRUE(cover.CliquesOf(n).empty());
  ExpectGreedyEqualsReference(g);
}

TEST_P(RandomGraphCoverTest, GreedyEqualsReferenceOnSparseIds) {
  // Ids spread over a range four times the vertex count, isolated
  // vertices among them, and densities from a few edges to most pairs.
  Rng rng(GetParam() * 977 + 3);
  for (const double density : {0.02, 0.1, 0.3, 0.7}) {
    std::vector<AuthorId> vertices;
    for (AuthorId id = 0; vertices.size() < 60; ++id) {
      if (rng.Bernoulli(0.25)) vertices.push_back(id * 7 + 100);
    }
    std::vector<std::pair<AuthorId, AuthorId>> edges;
    for (size_t i = 0; i < vertices.size(); ++i) {
      if (i % 9 == 4) continue;  // isolated
      for (size_t j = i + 1; j < vertices.size(); ++j) {
        if (j % 9 != 4 && rng.Bernoulli(density)) {
          edges.emplace_back(vertices[i], vertices[j]);
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "density " << density);
    ExpectGreedyEqualsReference(AuthorGraph::FromEdges(vertices, edges));
  }
}

TEST_P(RandomGraphCoverTest, GreedyOnASubsetEqualsGreedyOnItsSubgraph) {
  // Random subsets of graphs with sparse ids: vertices kept at several
  // rates, plus ids that are no vertex (between vertices, one past the
  // last and 2^32 - 1), and the empty set.
  Rng rng(GetParam() * 131 + 7);
  uint64_t edges_left_out = 0;
  for (const double density : {0.05, 0.2, 0.6}) {
    std::vector<AuthorId> vertices;
    for (AuthorId id = 0; vertices.size() < 50; ++id) {
      if (rng.Bernoulli(0.3)) vertices.push_back(id * 5 + 10);
    }
    std::vector<std::pair<AuthorId, AuthorId>> edges;
    for (size_t i = 0; i < vertices.size(); ++i) {
      for (size_t j = i + 1; j < vertices.size(); ++j) {
        if (rng.Bernoulli(density)) {
          edges.emplace_back(vertices[i], vertices[j]);
        }
      }
    }
    const AuthorGraph graph = AuthorGraph::FromEdges(vertices, edges);
    SCOPED_TRACE(::testing::Message() << "density " << density);
    ExpectSubsetCoverEqualsSubgraphCover(graph, {});
    for (const double keep : {0.0, 0.3, 0.7, 1.0}) {
      std::vector<AuthorId> subset;
      for (AuthorId v : vertices) {
        if (rng.Bernoulli(keep)) subset.push_back(v);
      }
      for (int i = 0; i < 4; ++i) {
        subset.push_back(
            static_cast<AuthorId>(rng.UniformInt(vertices.back())));
      }
      subset.push_back(vertices.back() + 1);
      subset.push_back(0xFFFFFFFFu);
      std::sort(subset.begin(), subset.end());
      subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
      SCOPED_TRACE(::testing::Message() << "keep " << keep);
      ExpectSubsetCoverEqualsSubgraphCover(graph, subset);
      edges_left_out +=
          graph.num_edges() - graph.InducedSubgraph(subset).num_edges();
    }
  }
  // The subsets cut edges, so the filter on neighbours is exercised.
  EXPECT_GT(edges_left_out, 0u);
}

TEST_P(RandomGraphCoverTest, GreedyEqualsReferenceOnPopulationComponents) {
  // A generated §6.3 population: the author graph, and the subgraph of
  // every shared component, which the S_* engines each cover.
  SocialGraphOptions options;
  options.num_authors = 150;
  options.num_communities = 6;
  options.avg_followees = 14.0;
  options.seed = GetParam();
  const FollowGraph social = GenerateSocialGraph(options);
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const AuthorGraph graph = AuthorGraph::FromSimilarities(
      authors, AllPairsSimilarity(social, authors, 0.05), 0.7);
  ASSERT_GT(graph.num_edges(), 0u);
  ExpectGreedyEqualsReference(graph);

  std::vector<User> users;
  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    if (social.Followees(a).empty()) continue;
    users.emplace_back(static_cast<UserId>(users.size()), social.Followees(a));
  }
  const std::vector<SharedComponent> components =
      ComputeSharedComponents(DiversityThresholds{}, graph, users);
  ASSERT_GT(components.size(), 10u);
  for (const SharedComponent& c : components) {
    ExpectGreedyEqualsReference(graph.InducedSubgraph(c.authors));
    ExpectSubsetCoverEqualsSubgraphCover(graph, c.authors);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCoverTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace firehose
