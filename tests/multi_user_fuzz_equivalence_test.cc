// Fuzz-style randomized equivalence for the multi-user engines: random
// user populations (overlapping subscriptions, shared connected
// components, per-user custom thresholds) over random author graphs and
// clustered streams. The per-user M_* engines and the shared-component
// S_* engines must deliver identical timelines for all three algorithms,
// the sharded S_* runtime must reproduce the sequential deliveries for
// every shard count, and the serve shards' SharedBinTable must deliver
// S_UniBin's timelines in every bin layout, with the work recorded
// before its bins became rings, a wrapped ring scanned newest first and
// a ring that shrinks with its entries.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/multi_user.h"
#include "src/core/shared_bins.h"
#include "src/runtime/sharded.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::RandomAuthorGraph;
using testing_util::RandomStream;

using Timelines = std::map<UserId, std::vector<PostId>>;

Timelines CollectTimelines(MultiUserEngine& engine, const PostStream& stream,
                           const std::vector<User>& users) {
  Timelines timelines;
  for (const User& user : users) timelines[user.id];  // empty timelines too
  std::vector<UserId> delivered;
  for (const Post& post : stream) {
    engine.Offer(post, &delivered);
    for (UserId user : delivered) timelines[user].push_back(post.id);
  }
  return timelines;
}

/// Random user population over `num_authors` authors: subscription lists
/// drawn from a few overlapping "interest hubs" so distinct users often
/// share entire connected components (the case S_* engines exist for),
/// plus a sprinkle of per-user custom thresholds (the case that blocks
/// sharing).
std::vector<User> RandomUsers(int num_users, int num_authors, Rng& rng,
                              const DiversityThresholds& base) {
  // A handful of hub author sets users copy from.
  std::vector<std::vector<AuthorId>> hubs(3);
  for (auto& hub : hubs) {
    const int hub_size = 2 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < hub_size; ++i) {
      hub.push_back(
          static_cast<AuthorId>(rng.UniformInt(static_cast<uint64_t>(num_authors))));
    }
    std::sort(hub.begin(), hub.end());
    hub.erase(std::unique(hub.begin(), hub.end()), hub.end());
  }
  std::vector<User> users;
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs = hubs[rng.UniformInt(hubs.size())];
    // Occasionally extend the hub with private subscriptions.
    const int extra = static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < extra; ++i) {
      subs.push_back(
          static_cast<AuthorId>(rng.UniformInt(static_cast<uint64_t>(num_authors))));
    }
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    std::optional<DiversityThresholds> custom;
    if (rng.Bernoulli(0.2)) {
      DiversityThresholds t = base;
      t.lambda_c = static_cast<int>(rng.UniformInt(12));
      t.lambda_t_ms = 100 + static_cast<int64_t>(rng.UniformInt(900));
      custom = t;
    }
    users.push_back(User{u, std::move(subs), custom});
  }
  return users;
}

class MultiUserFuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MultiUserFuzzEquivalenceTest, MAndSEnginesAgreeOnRandomPopulations) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const int num_authors = 8 + static_cast<int>(rng.UniformInt(24));
    const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.25, rng);
    DiversityThresholds t;
    t.lambda_c = 2 + static_cast<int>(rng.UniformInt(10));
    t.lambda_t_ms = 200 + static_cast<int64_t>(rng.UniformInt(800));
    const std::vector<User> users =
        RandomUsers(2 + static_cast<int>(rng.UniformInt(8)), num_authors, rng, t);
    const PostStream stream = RandomStream(
        150 + static_cast<int>(rng.UniformInt(150)), num_authors, 25, rng);

    for (Algorithm algorithm : kAllAlgorithms) {
      auto m_engine = MakeMUserEngine(algorithm, t, graph, users);
      auto s_engine = MakeSUserEngine(algorithm, t, graph, users);
      const Timelines m_timelines = CollectTimelines(*m_engine, stream, users);
      const Timelines s_timelines = CollectTimelines(*s_engine, stream, users);
      ASSERT_EQ(m_timelines, s_timelines)
          << AlgorithmName(algorithm) << " seed=" << GetParam()
          << " round=" << round;
      // Sharing never *increases* work: the S engine runs each distinct
      // (component, thresholds) pair once, where the M engine repeats it
      // per subscribed user (and mixes a user's components in one bin).
      EXPECT_LE(s_engine->AggregateStats().comparisons,
                m_engine->AggregateStats().comparisons)
          << AlgorithmName(algorithm);
    }
  }
}

TEST_P(MultiUserFuzzEquivalenceTest, ShardedRuntimeMatchesSequentialS) {
  Rng rng(GetParam() * 7919 + 1);
  const int num_authors = 20;
  const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.2, rng);
  DiversityThresholds t;
  t.lambda_c = 6;
  t.lambda_t_ms = 400;
  const std::vector<User> users = RandomUsers(8, num_authors, rng, t);
  const PostStream stream = RandomStream(250, num_authors, 25, rng);

  for (Algorithm algorithm : kAllAlgorithms) {
    // Sequential S engine deliveries as (post, user) pairs.
    auto s_engine = MakeSUserEngine(algorithm, t, graph, users);
    std::vector<std::pair<PostId, UserId>> sequential;
    std::vector<UserId> delivered;
    for (const Post& post : stream) {
      s_engine->Offer(post, &delivered);
      for (UserId user : delivered) sequential.emplace_back(post.id, user);
    }

    for (int num_shards : {1, 2, 3}) {
      std::vector<std::pair<PostId, UserId>> sharded;
      const ShardedRunResult result = RunShardedSUser(
          algorithm, t, graph, users, stream, num_shards, &sharded);
      ASSERT_EQ(sharded, sequential)
          << AlgorithmName(algorithm) << " shards=" << num_shards;
      EXPECT_EQ(result.deliveries, sequential.size());
      EXPECT_EQ(result.stats.comparisons, s_engine->AggregateStats().comparisons)
          << AlgorithmName(algorithm) << " shards=" << num_shards;
      EXPECT_EQ(result.stats.pruned, s_engine->AggregateStats().pruned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiUserFuzzEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/// A population without custom thresholds in which authors sit in many
/// components: each user follows a random handful of the first
/// `followed` authors, so one author meets many different co-followee
/// sets. Authors `followed` and up are followed by no one.
std::vector<User> OverlappingUsers(int num_users, int followed, Rng& rng) {
  std::vector<User> users;
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs;
    const int count = 1 + static_cast<int>(rng.UniformInt(6));
    for (int i = 0; i < count; ++i) {
      subs.push_back(static_cast<AuthorId>(
          rng.UniformInt(static_cast<uint64_t>(followed))));
    }
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    users.emplace_back(u, std::move(subs));
  }
  return users;
}

/// The components split round-robin over `parts` tables, as the server
/// splits them over its shards' tables; every post is offered to every
/// table, each of which routes only its own authors.
std::vector<SharedBinTable> PlacedTables(Algorithm algorithm,
                                         const DiversityThresholds& t,
                                         const AuthorGraph& graph,
                                         const std::vector<User>& users,
                                         size_t parts) {
  std::vector<std::vector<SharedComponent>> placed(parts);
  std::vector<SharedComponent> components =
      ComputeSharedComponents(t, graph, users);
  for (size_t i = 0; i < components.size(); ++i) {
    placed[i % parts].push_back(std::move(components[i]));
  }
  std::vector<SharedBinTable> tables;
  for (auto& part : placed) {
    tables.emplace_back(algorithm, t, graph, std::move(part));
  }
  return tables;
}

/// Offers `post` to every table and appends it to the timelines of the
/// admitting components' users.
void OfferToTables(std::vector<SharedBinTable>& tables, const Post& post,
                   Timelines* timelines) {
  std::vector<uint32_t> admitted;
  for (SharedBinTable& table : tables) {
    table.Offer(post, &admitted);
    for (uint32_t component : admitted) {
      for (UserId user : table.users(component)) {
        (*timelines)[user].push_back(post.id);
      }
    }
  }
}

/// Folds `value` into `digest` (64-bit FNV-1a over whole words).
uint64_t Fold(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 0x100000001b3ull;
}

/// The work of every placed table of
/// TimelinesEqualSUniBinOnRandomPopulations, per layout: the sums of comparisons() and window_posts() over the
/// tables, and the digest of both counts folded table by table. Recorded
/// from bins kept as two contiguous vectors, before each bin became one
/// ring: the ring must test and keep exactly the entries they did.
struct RecordedWork {
  Algorithm algorithm;
  uint64_t comparisons;
  uint64_t window_posts;
  uint64_t digest;
};
constexpr RecordedWork kRecordedWork[] = {
    {Algorithm::kUniBin, 2572071, 10751, 647872202834195645ull},
    {Algorithm::kNeighborBin, 799501, 10751, 13624536783739147843ull},
    {Algorithm::kCliqueBin, 1297336, 10751, 5534713464782917670ull},
};

class SharedBinTableFuzzTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SharedBinTableFuzzTest, TimelinesEqualSUniBinOnRandomPopulations) {
  const std::pair<int, int64_t> kThresholds[] = {
      {2, 150}, {6, 400}, {12, 1200}, {20, 3000}};
  Rng rng(9001);
  size_t max_components_per_author = 0;
  size_t unfollowed_posts = 0;
  uint64_t comparisons = 0;
  uint64_t window_posts = 0;
  uint64_t digest = 0xcbf29ce484222325ull;
  for (int round = 0; round < 12; ++round) {
    const int num_authors = 12 + static_cast<int>(rng.UniformInt(28));
    const int followed = num_authors - 3;
    const AuthorGraph graph =
        RandomAuthorGraph(num_authors, 0.15 + 0.1 * (round % 3), rng);
    const std::vector<User> users =
        OverlappingUsers(10 + static_cast<int>(rng.UniformInt(40)), followed,
                         rng);
    const PostStream stream = RandomStream(
        300 + static_cast<int>(rng.UniformInt(300)), num_authors, 25, rng);
    for (const Post& post : stream) {
      unfollowed_posts += post.author >= static_cast<AuthorId>(followed);
    }
    for (const auto& [lambda_c, lambda_t_ms] : kThresholds) {
      DiversityThresholds t;
      t.lambda_c = lambda_c;
      t.lambda_t_ms = lambda_t_ms;
      auto reference = MakeSUserEngine(Algorithm::kUniBin, t, graph, users);
      const Timelines expected = CollectTimelines(*reference, stream, users);
      for (size_t parts : {1, 3}) {
        std::vector<SharedBinTable> tables =
            PlacedTables(GetParam(), t, graph, users, parts);
        Timelines served;
        for (const User& user : users) served[user.id];
        for (const Post& post : stream) OfferToTables(tables, post, &served);
        ASSERT_EQ(served, expected)
            << AlgorithmName(GetParam()) << " round=" << round
            << " lambda_c=" << lambda_c << " lambda_t=" << lambda_t_ms
            << " parts=" << parts;
        for (const SharedBinTable& table : tables) {
          comparisons += table.comparisons();
          window_posts += table.window_posts();
          digest = Fold(Fold(digest, table.comparisons()), table.window_posts());
          for (AuthorId a = 0; a < table.author_bound(); ++a) {
            max_components_per_author = std::max(
                max_components_per_author, table.ComponentsOf(a).size());
          }
        }
      }
    }
  }
  // The populations exercise what the table exists for, an author in
  // many components decided once for all of them, and posts no table
  // routes.
  EXPECT_GE(max_components_per_author, 5u);
  EXPECT_GT(unfollowed_posts, 0u);
  EXPECT_GT(comparisons, 0u);
  for (const RecordedWork& recorded : kRecordedWork) {
    if (recorded.algorithm != GetParam()) continue;
    EXPECT_EQ(comparisons, recorded.comparisons);
    EXPECT_EQ(window_posts, recorded.window_posts);
    EXPECT_EQ(digest, recorded.digest);
  }
}

TEST_P(SharedBinTableFuzzTest, WrappedBinIsScannedNewerRunFirst) {
  // One user follows authors 0 and 1, who are neighbours: one component,
  // and in every layout one bin that author 0's posts are written to and
  // read from (author 1's bins stay empty). The fingerprints 0xFF << 8k
  // lie 16 bits apart, so with λc = 3 a post hits only its equal.
  const AuthorGraph graph = AuthorGraph::FromEdges({0, 1}, {{0, 1}});
  const std::vector<User> users = {User(0, {0, 1})};
  DiversityThresholds t;
  t.lambda_c = 3;
  t.lambda_t_ms = 100;
  const auto fingerprint = [](int k) { return uint64_t{0xFF} << (8 * k); };
  // Posts 0-3 fill the bin's four slots. Post 4 evicts posts 0 and 1 and
  // wraps to the first slot, post 5 to the second: the older run holds
  // posts 2 and 3, the newer run posts 4 and 5. Each of posts 0-5 is new
  // and tests every entry before it in the bin: 0, 1, 2, 3, then 2 and 3.
  const int64_t kTimes[] = {0, 10, 20, 30, 115, 116};
  constexpr uint64_t kFillComparisons = 0 + 1 + 2 + 3 + 2 + 3;
  // Post 6 repeats post 2 or post 5. Newest first, a hit on post 5 tests
  // post 5 alone; one on post 2 tests posts 5, 4 and 3 too.
  const struct {
    int repeats;
    uint64_t comparisons;
  } kProbes[] = {{2, 4}, {5, 1}};
  for (const auto& probe : kProbes) {
    SCOPED_TRACE(::testing::Message() << "repeats post " << probe.repeats);
    std::vector<SharedBinTable> tables =
        PlacedTables(GetParam(), t, graph, users, 1);
    SharedBinTable& table = tables.front();
    std::vector<uint32_t> admitted;
    for (int k = 0; k < 6; ++k) {
      const PostId id = static_cast<PostId>(k);
      table.Offer(Post{id, 0, kTimes[k], fingerprint(k), {}}, &admitted);
      EXPECT_EQ(admitted, std::vector<uint32_t>{0}) << "post " << k;
    }
    EXPECT_EQ(table.comparisons(), kFillComparisons);
    table.Offer(Post{6, 0, 117, fingerprint(probe.repeats), {}}, &admitted);
    EXPECT_TRUE(admitted.empty()) << "post 6 was admitted";
    EXPECT_EQ(table.comparisons(), kFillComparisons + probe.comparisons);
    // Both runs hold author 0's posts 2-5, and nothing else is stored.
    EXPECT_EQ(table.BinnedPostsBy(0), 4u);
    EXPECT_EQ(table.BinnedPostsBy(1), 0u);
    EXPECT_EQ(table.window_posts(), 4u);
  }
}

TEST_P(SharedBinTableFuzzTest, EvictedBurstLeavesAtMostFourSlotsAnEntry) {
  // As above, author 0's posts are written to the same bins in every
  // layout. A burst fills them; a post by author 2, whom no one follows,
  // then evicts all but the burst's last `kept` posts and is stored
  // nowhere.
  const AuthorGraph graph = AuthorGraph::FromEdges({0, 1}, {{0, 1}});
  const std::vector<User> users = {User(0, {0, 1})};
  DiversityThresholds t;
  t.lambda_c = 3;
  t.lambda_t_ms = 1000;
  constexpr int kBurst = 64;
  Rng rng(31);
  for (size_t kept : {0, 1, 3, 5, 16}) {
    SCOPED_TRACE(::testing::Message() << "kept " << kept);
    std::vector<SharedBinTable> tables =
        PlacedTables(GetParam(), t, graph, users, 1);
    SharedBinTable& table = tables.front();
    std::vector<uint32_t> admitted;
    std::vector<uint64_t> fingerprints;
    for (int k = 0; k < kBurst; ++k) {
      fingerprints.push_back(rng.Next());
      table.Offer(Post{static_cast<PostId>(k), 0, k, fingerprints.back(), {}},
                  &admitted);
      ASSERT_EQ(admitted, std::vector<uint32_t>{0}) << "post " << k;
    }
    const size_t bins_written = table.bin_entries() / kBurst;
    ASSERT_GE(bins_written, 1u);
    EXPECT_EQ(table.bin_entries(), bins_written * kBurst);
    EXPECT_GE(table.bin_bytes(), bins_written * 12 * kBurst);

    const int64_t evict_at = kBurst - static_cast<int64_t>(kept) + t.lambda_t_ms;
    table.Offer(Post{kBurst, 2, evict_at, rng.Next(), {}}, &admitted);
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(table.window_posts(), kept);
    EXPECT_EQ(table.bin_entries(), bins_written * kept);
    EXPECT_LE(table.bin_bytes(),
              bins_written * 12 * std::max<size_t>(4, 4 * kept));
    // The shrunk rings still find the posts they kept.
    EXPECT_EQ(table.BinnedPostsBy(0), bins_written * kept);
    if (kept > 0) {
      table.Offer(Post{kBurst + 1, 0, evict_at, fingerprints.back(), {}},
                  &admitted);
      EXPECT_TRUE(admitted.empty()) << "a repeat of the newest kept post";
    }
  }
}

TEST(SharedBinTableTest, WindowIndexIsExactAcrossTheLow32BitWrap) {
  constexpr uint64_t k32 = uint64_t{1} << 32;
  for (uint64_t front : {k32 - 1, k32, k32 + 1}) {
    for (uint64_t index : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                           uint64_t{1} << 31, k32 - 1}) {
      const uint64_t position = front + index;
      EXPECT_EQ(SharedBinTable::WindowIndex(static_cast<uint32_t>(position),
                                            front),
                index)
          << "front " << front << " position " << position;
    }
  }
}

TEST_P(SharedBinTableFuzzTest, SilentAuthorLeavesEveryBinAfterLambdaT) {
  Rng rng(77);
  const int num_authors = 16;
  const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.3, rng);
  const std::vector<User> users = OverlappingUsers(30, num_authors, rng);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 500;
  std::vector<SharedBinTable> tables =
      PlacedTables(GetParam(), t, graph, users, 1);
  SharedBinTable& table = tables.front();

  // Author `silent` posts distinct content until time 1000, then stops;
  // everyone else keeps posting for three more λt.
  const AuthorId silent = users.front().subscriptions.front();
  PostStream stream;
  for (int64_t time = 0; time <= 1000 + 3 * t.lambda_t_ms; time += 5) {
    Post post;
    post.id = static_cast<PostId>(stream.size());
    post.time_ms = time;
    post.simhash = rng.Next();
    post.author = static_cast<AuthorId>(
        rng.UniformInt(static_cast<uint64_t>(num_authors)));
    if (time <= 1000 && stream.size() % 4 == 0) post.author = silent;
    if (time > 1000 && post.author == silent) continue;
    stream.push_back(post);
  }

  auto reference = MakeSUserEngine(Algorithm::kUniBin, t, graph, users);
  const Timelines expected = CollectTimelines(*reference, stream, users);
  Timelines served;
  for (const User& user : users) served[user.id];
  std::vector<bool> delivered(stream.size(), false);
  for (const Post& post : stream) {
    OfferToTables(tables, post, &served);
    if (post.time_ms == 1000) {
      EXPECT_GT(table.BinnedPostsBy(silent), 0u) << "nothing to evict";
    }
  }
  ASSERT_EQ(served, expected) << AlgorithmName(GetParam());
  EXPECT_EQ(table.BinnedPostsBy(silent), 0u) << AlgorithmName(GetParam());

  // The window is exactly the posts some component admitted within λt of
  // the newest post.
  for (const auto& [user, timeline] : expected) {
    for (PostId id : timeline) delivered[id] = true;
  }
  const int64_t cutoff = stream.back().time_ms - t.lambda_t_ms;
  size_t in_window = 0;
  for (const Post& post : stream) {
    in_window += delivered[post.id] && post.time_ms >= cutoff ? 1 : 0;
  }
  EXPECT_GT(in_window, 0u);
  EXPECT_EQ(table.window_posts(), in_window);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SharedBinTableFuzzTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace firehose
