#include "src/core/multi_user.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::PaperExampleThresholds;

// Figure 7's two-user setup: global graph over authors 0..5 (a1..a6):
// component {0,1,5} shared by u1 and u2 (a1,a2,a6), a4 similar to a3 for
// u1 and to a5 for u2.
AuthorGraph Figure7Graph() {
  return AuthorGraph::FromEdges({0, 1, 2, 3, 4, 5},
                                {{0, 1}, {0, 5}, {2, 3}, {3, 4}});
}

std::vector<User> Figure7Users() {
  // u1 subscribes {a1,a2,a3,a4,a6} = {0,1,2,3,5};
  // u2 subscribes {a1,a2,a4,a5,a6} = {0,1,3,4,5}.
  return {User{0, {0, 1, 2, 3, 5}}, User{1, {0, 1, 3, 4, 5}}};
}

PostStream MultiUserStream(uint64_t seed, int num_posts, int num_authors) {
  Rng rng(seed);
  return testing_util::RandomStream(num_posts, num_authors, 30, rng);
}

// Per-user reference: diversify the user's sub-stream against G_i.
std::map<UserId, std::vector<PostId>> PerUserReference(
    const PostStream& stream, const DiversityThresholds& t,
    const AuthorGraph& graph, const std::vector<User>& users) {
  std::map<UserId, std::vector<PostId>> result;
  for (const User& user : users) {
    const AuthorGraph gi = graph.InducedSubgraph(user.subscriptions);
    PostStream sub;
    for (const Post& post : stream) {
      if (gi.HasVertex(post.author)) sub.push_back(post);
    }
    result[user.id] = testing_util::ReferenceDiversify(sub, t, gi);
  }
  return result;
}

std::map<UserId, std::vector<PostId>> CollectTimelines(
    MultiUserEngine& engine, const PostStream& stream,
    const std::vector<User>& users) {
  std::map<UserId, std::vector<PostId>> timelines;
  for (const User& user : users) timelines[user.id];  // ensure keys exist
  std::vector<UserId> delivered;
  for (const Post& post : stream) {
    engine.Offer(post, &delivered);
    for (UserId user : delivered) timelines[user].push_back(post.id);
  }
  return timelines;
}

TEST(MultiUserTest, MEngineMatchesPerUserReference) {
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const PostStream stream = MultiUserStream(5, 300, 6);
  const DiversityThresholds t = PaperExampleThresholds();

  for (Algorithm algorithm : kAllAlgorithms) {
    auto engine = MakeMUserEngine(algorithm, t, graph, users);
    EXPECT_EQ(CollectTimelines(*engine, stream, users),
              PerUserReference(stream, t, graph, users))
        << engine->name();
  }
}

TEST(MultiUserTest, SEngineMatchesPerUserReference) {
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const PostStream stream = MultiUserStream(6, 300, 6);
  const DiversityThresholds t = PaperExampleThresholds();

  for (Algorithm algorithm : kAllAlgorithms) {
    auto engine = MakeSUserEngine(algorithm, t, graph, users);
    EXPECT_EQ(CollectTimelines(*engine, stream, users),
              PerUserReference(stream, t, graph, users))
        << engine->name();
  }
}

TEST(MultiUserTest, SharedComponentIsDeduplicated) {
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const DiversityThresholds t = PaperExampleThresholds();

  // u1's components: {0,1,5}, {2,3}. u2's: {0,1,5}, {3,4}.
  // Distinct components: 3. M engine would hold 2 diversifiers (1/user).
  auto s_engine = MakeSUserEngine(Algorithm::kUniBin, t, graph, users);
  EXPECT_EQ(s_engine->num_diversifiers(), 3u);
  auto m_engine = MakeMUserEngine(Algorithm::kUniBin, t, graph, users);
  EXPECT_EQ(m_engine->num_diversifiers(), 2u);
}

TEST(MultiUserTest, SEngineDoesLessWorkWithSharedSubscriptions) {
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const PostStream stream = MultiUserStream(7, 600, 6);
  const DiversityThresholds t = PaperExampleThresholds();

  auto m_engine = MakeMUserEngine(Algorithm::kUniBin, t, graph, users);
  auto s_engine = MakeSUserEngine(Algorithm::kUniBin, t, graph, users);
  std::vector<UserId> delivered;
  for (const Post& post : stream) m_engine->Offer(post, &delivered);
  for (const Post& post : stream) s_engine->Offer(post, &delivered);
  // The shared component {0,1,5} is processed once instead of twice.
  EXPECT_LT(s_engine->AggregateStats().comparisons,
            m_engine->AggregateStats().comparisons);
  EXPECT_LT(s_engine->AggregateStats().insertions,
            m_engine->AggregateStats().insertions);
}

TEST(MultiUserTest, PostsFromUnsubscribedAuthorsGoNowhere) {
  const AuthorGraph graph = Figure7Graph();
  const std::vector<User> users = {User{0, {0, 1}}};
  const DiversityThresholds t = PaperExampleThresholds();

  for (bool shared : {false, true}) {
    auto engine = shared ? MakeSUserEngine(Algorithm::kUniBin, t, graph, users)
                         : MakeMUserEngine(Algorithm::kUniBin, t, graph, users);
    std::vector<UserId> delivered;
    Post post;
    post.id = 0;
    post.author = 4;  // nobody subscribes to a5
    post.time_ms = 0;
    post.simhash = 1;
    engine->Offer(post, &delivered);
    EXPECT_TRUE(delivered.empty());
    Post far;
    far.id = 1;
    far.author = 99;  // unknown author entirely
    far.time_ms = 1;
    far.simhash = 2;
    engine->Offer(far, &delivered);
    EXPECT_TRUE(delivered.empty());
  }
}

TEST(MultiUserTest, Figure7UsersCanDivergeOnSharedAuthorA4) {
  // a4 (id 3) is similar to a3 (id 2, subscribed only by u1) and to a5
  // (id 4, subscribed only by u2): a post by a3 can cover a4's post for u1
  // while u2 still sees it.
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const DiversityThresholds t = PaperExampleThresholds();
  auto engine = MakeSUserEngine(Algorithm::kUniBin, t, graph, users);

  std::vector<UserId> delivered;
  Post by_a3;
  by_a3.id = 0;
  by_a3.author = 2;
  by_a3.time_ms = 0;
  by_a3.simhash = 0x7;
  engine->Offer(by_a3, &delivered);
  EXPECT_EQ(delivered, (std::vector<UserId>{0}));  // only u1 subscribes a3

  Post by_a4;
  by_a4.id = 1;
  by_a4.author = 3;
  by_a4.time_ms = 1;
  by_a4.simhash = 0x7;  // content-identical to a3's post
  engine->Offer(by_a4, &delivered);
  EXPECT_EQ(delivered, (std::vector<UserId>{1}));  // covered for u1 only
}

class MultiUserPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiUserPropertyTest, MAndSAgreeOnRandomWorkloads) {
  Rng rng(GetParam());
  const int num_authors = 12;
  const AuthorGraph graph =
      testing_util::RandomAuthorGraph(num_authors, 0.25, rng);
  std::vector<User> users;
  const int num_users = 6;
  for (UserId u = 0; u < num_users; ++u) {
    std::vector<AuthorId> subs;
    for (AuthorId a = 0; a < static_cast<AuthorId>(num_authors); ++a) {
      if (rng.Bernoulli(0.5)) subs.push_back(a);
    }
    if (subs.empty()) subs.push_back(0);
    users.push_back(User{u, subs});
  }
  const PostStream stream = testing_util::RandomStream(400, num_authors, 30, rng);

  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 500;

  for (Algorithm algorithm : kAllAlgorithms) {
    auto m_engine = MakeMUserEngine(algorithm, t, graph, users);
    auto s_engine = MakeSUserEngine(algorithm, t, graph, users);
    const auto m_timelines = CollectTimelines(*m_engine, stream, users);
    const auto s_timelines = CollectTimelines(*s_engine, stream, users);
    EXPECT_EQ(m_timelines, s_timelines) << AlgorithmName(algorithm);
    const auto reference = PerUserReference(stream, t, graph, users);
    EXPECT_EQ(m_timelines, reference) << AlgorithmName(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiUserPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(MultiUserTest, CustomThresholdsHonoredPerUser) {
  const AuthorGraph graph = Figure7Graph();
  // u0 uses default thresholds; u1 disables pruning entirely by setting
  // an impossible content threshold.
  DiversityThresholds strict = PaperExampleThresholds();
  strict.lambda_c = -1;  // nothing is ever content-similar
  std::vector<User> users = {User{0, {0, 1, 5}}, User{1, {0, 1, 5}, strict}};
  const PostStream stream = MultiUserStream(21, 200, 6);

  for (bool shared : {false, true}) {
    auto engine =
        shared ? MakeSUserEngine(Algorithm::kUniBin,
                                 PaperExampleThresholds(), graph, users)
               : MakeMUserEngine(Algorithm::kUniBin,
                                 PaperExampleThresholds(), graph, users);
    const auto timelines = CollectTimelines(*engine, stream, users);
    // u1 sees every post from {0,1,5}; u0 sees a strict subset.
    size_t subscribed_posts = 0;
    for (const Post& post : stream) {
      if (post.author == 0 || post.author == 1 || post.author == 5) {
        ++subscribed_posts;
      }
    }
    EXPECT_EQ(timelines.at(1).size(), subscribed_posts);
    EXPECT_LT(timelines.at(0).size(), subscribed_posts);
  }
}

TEST(MultiUserTest, CustomThresholdsBlockSharing) {
  const AuthorGraph graph = Figure7Graph();
  DiversityThresholds wide = PaperExampleThresholds();
  wide.lambda_t_ms = 999999;
  // Same subscriptions; different thresholds: S engine must keep the
  // component {0,1,5} separate per user (2 components + shared none).
  std::vector<User> same_t = {User{0, {0, 1, 5}}, User{1, {0, 1, 5}}};
  std::vector<User> diff_t = {User{0, {0, 1, 5}},
                              User{1, {0, 1, 5}, wide}};
  auto shared_engine = MakeSUserEngine(
      Algorithm::kUniBin, PaperExampleThresholds(), graph, same_t);
  auto split_engine = MakeSUserEngine(
      Algorithm::kUniBin, PaperExampleThresholds(), graph, diff_t);
  EXPECT_EQ(shared_engine->num_diversifiers(), 1u);
  EXPECT_EQ(split_engine->num_diversifiers(), 2u);
}

TEST(MultiUserTest, CustomThresholdSAndMStillAgree) {
  const AuthorGraph graph = Figure7Graph();
  DiversityThresholds wide = PaperExampleThresholds();
  wide.lambda_t_ms = 100000;
  std::vector<User> users = Figure7Users();
  users[1].custom_thresholds = wide;
  const PostStream stream = MultiUserStream(23, 400, 6);
  for (Algorithm algorithm : kAllAlgorithms) {
    auto m_engine =
        MakeMUserEngine(algorithm, PaperExampleThresholds(), graph, users);
    auto s_engine =
        MakeSUserEngine(algorithm, PaperExampleThresholds(), graph, users);
    EXPECT_EQ(CollectTimelines(*m_engine, stream, users),
              CollectTimelines(*s_engine, stream, users))
        << AlgorithmName(algorithm);
  }
}

// ComputeSharedComponents by its definition: per user, the connected
// components of InducedSubgraph(subscriptions), deduplicated by author set
// and effective thresholds in order of discovery.
std::vector<SharedComponent> ReferenceSharedComponents(
    const DiversityThresholds& t, const AuthorGraph& graph,
    const std::vector<User>& users) {
  std::vector<SharedComponent> components;
  for (const User& user : users) {
    const DiversityThresholds user_t = user.custom_thresholds.value_or(t);
    for (std::vector<AuthorId>& authors :
         graph.InducedSubgraph(user.subscriptions).ConnectedComponents()) {
      auto it = std::find_if(
          components.begin(), components.end(), [&](const auto& c) {
            return c.authors == authors && c.thresholds == user_t;
          });
      if (it == components.end()) {
        components.push_back(SharedComponent{std::move(authors), {}, user_t});
        it = components.end() - 1;
      }
      it->users.push_back(user.id);
    }
  }
  for (SharedComponent& c : components) {
    std::sort(c.users.begin(), c.users.end());
    c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  }
  return components;
}

class SharedComponentsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedComponentsTest, EqualTheDefinitionOnRandomPopulations) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    // Vertex ids with gaps; subscriptions drawn past the last vertex too,
    // and now and then an id far past it.
    std::vector<AuthorId> vertices;
    const AuthorId span = 20 + static_cast<AuthorId>(rng.UniformInt(60));
    for (AuthorId a = 0; a < span; ++a) {
      if (rng.Bernoulli(0.6)) vertices.push_back(a);
    }
    const double density = 0.02 + 0.3 * rng.UniformDouble();
    std::vector<std::pair<AuthorId, AuthorId>> edges;
    for (size_t i = 0; i < vertices.size(); ++i) {
      for (size_t j = i + 1; j < vertices.size(); ++j) {
        if (rng.Bernoulli(density)) {
          edges.emplace_back(vertices[i], vertices[j]);
        }
      }
    }
    const AuthorGraph graph = AuthorGraph::FromEdges(vertices, edges);
    DiversityThresholds t;
    t.lambda_c = 3 + static_cast<int>(rng.UniformInt(10));
    t.lambda_t_ms = 100 + static_cast<int64_t>(rng.UniformInt(900));

    // Users copy one of a few interest sets, so components repeat, then
    // add private authors; subscriptions are unsorted and repeat ids.
    // Some users carry custom thresholds, some equal to the default.
    std::vector<std::vector<AuthorId>> interests(4);
    for (auto& interest : interests) {
      const int size = 1 + static_cast<int>(rng.UniformInt(8));
      for (int i = 0; i < size; ++i) {
        interest.push_back(static_cast<AuthorId>(rng.UniformInt(span + 5)));
      }
    }
    std::vector<User> users;
    const int num_users = 5 + static_cast<int>(rng.UniformInt(30));
    for (int u = 0; u < num_users; ++u) {
      std::vector<AuthorId> subs = interests[rng.UniformInt(interests.size())];
      const int extra = static_cast<int>(rng.UniformInt(5));
      for (int i = 0; i < extra; ++i) {
        subs.push_back(static_cast<AuthorId>(rng.UniformInt(span + 5)));
      }
      if (!subs.empty() && rng.Bernoulli(0.3)) subs.push_back(subs.front());
      if (rng.Bernoulli(0.1)) subs.push_back(0xFFFFFFF0u);
      rng.Shuffle(subs);
      std::optional<DiversityThresholds> custom;
      if (rng.Bernoulli(0.15)) {
        custom = t;
      } else if (rng.Bernoulli(0.2)) {
        DiversityThresholds own = t;
        own.lambda_c = static_cast<int>(rng.UniformInt(4));
        custom = own;
      }
      users.push_back(User{static_cast<UserId>(u), std::move(subs), custom});
    }
    rng.Shuffle(users);  // users need not come in id order

    const std::vector<SharedComponent> got =
        ComputeSharedComponents(t, graph, users);
    const std::vector<SharedComponent> want =
        ReferenceSharedComponents(t, graph, users);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " component "
                                        << i);
      EXPECT_EQ(got[i].authors, want[i].authors);
      // ComponentTable::ApproxBytes counts the capacity, and with it
      // every S_* peak_bytes bench key.
      EXPECT_EQ(got[i].authors.capacity(), want[i].authors.capacity());
      EXPECT_EQ(got[i].users, want[i].users);
      EXPECT_TRUE(got[i].thresholds == want[i].thresholds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedComponentsTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(MultiUserTest, NamesIdentifyEngineAndAlgorithm) {
  const AuthorGraph graph = Figure7Graph();
  const auto users = Figure7Users();
  const DiversityThresholds t = PaperExampleThresholds();
  EXPECT_EQ(MakeMUserEngine(Algorithm::kCliqueBin, t, graph, users)->name(),
            "M_CliqueBin");
  EXPECT_EQ(MakeSUserEngine(Algorithm::kNeighborBin, t, graph, users)->name(),
            "S_NeighborBin");
}

}  // namespace
}  // namespace firehose
