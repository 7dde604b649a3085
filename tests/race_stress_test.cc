// Race-hunting stress tests for the in-process sharded run: repeated
// construct/run/join/destroy rounds over many shard counts, and
// independent runs at once. Run them under the `tsan` preset to turn a
// data race into a hard failure:
//
//   cmake --preset tsan && cmake --build --preset tsan -j
//   ctest --preset tsan -R RaceStress
//
// They also run (slower, unsanitized) in the default suite, where the
// assertions still verify sequential equivalence. The serve path's
// shard hand-off is raced the same way by NetServeTest under tsan.

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/eval/experiment.h"
#include "src/runtime/sharded.h"
#include "tests/test_util.h"
#include "tests/tsan_annotations.h"

namespace firehose {
namespace {

using testing_util::ScaledIterations;

// --- ShardedEngine -----------------------------------------------------------

struct Workbench {
  AuthorGraph graph;
  std::vector<User> users;
  PostStream stream;
};

Workbench MakeWorkbench(uint64_t seed, int num_authors, int num_users,
                        int num_posts) {
  Rng rng(seed);
  Workbench w;
  w.graph = testing_util::RandomAuthorGraph(num_authors, 0.25, rng);
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs;
    for (AuthorId a = 0; a < static_cast<AuthorId>(num_authors); ++a) {
      if (rng.Bernoulli(0.4)) subs.push_back(a);
    }
    if (subs.empty()) subs.push_back(0);
    w.users.push_back(User{u, subs});
  }
  w.stream = testing_util::RandomStream(num_posts, num_authors, 25, rng);
  return w;
}

/// Many shard counts x seeds: the multi-threaded sharded run must merge to
/// exactly the sequential S_* engine's delivery multiset. Shards share the
/// read-only stream, so TSan verifies no shard writes anything shared.
TEST(RaceStressSharded, ManyShardsMatchSequentialAcrossSeeds) {
  const int kPosts = ScaledIterations(3000);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;

  for (uint64_t seed = 201; seed <= 203; ++seed) {
    const Workbench w = MakeWorkbench(seed, 16, 8, kPosts);
    auto engine = MakeSUserEngine(Algorithm::kCliqueBin, t, w.graph, w.users);
    std::vector<std::pair<PostId, UserId>> expected;
    RunMultiUser(*engine, w.stream, &expected);
    std::sort(expected.begin(), expected.end());

    for (int num_shards : {2, 3, 8}) {
      std::vector<std::pair<PostId, UserId>> sharded;
      RunShardedSUser(Algorithm::kCliqueBin, t, w.graph, w.users, w.stream,
                      num_shards, &sharded);
      ASSERT_EQ(sharded, expected)
          << "seed=" << seed << " shards=" << num_shards;
    }
  }
}

/// Two sharded runs execute concurrently (each spawning its own worker
/// threads) against the same read-only inputs: nothing may be shared
/// mutable between independent engine instances.
TEST(RaceStressSharded, ConcurrentIndependentRunsDoNotInterfere) {
  const int kPosts = ScaledIterations(3000);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;
  const Workbench w = MakeWorkbench(301, 14, 6, kPosts);

  auto engine = MakeSUserEngine(Algorithm::kUniBin, t, w.graph, w.users);
  std::vector<std::pair<PostId, UserId>> expected;
  RunMultiUser(*engine, w.stream, &expected);
  std::sort(expected.begin(), expected.end());

  std::vector<std::vector<std::pair<PostId, UserId>>> results(4);
  std::vector<std::thread> runners;
  runners.reserve(results.size());
  for (size_t r = 0; r < results.size(); ++r) {
    runners.emplace_back([&w, &t, &results, r] {
      RunShardedSUser(Algorithm::kUniBin, t, w.graph, w.users, w.stream,
                      2 + static_cast<int>(r), &results[r]);
    });
  }
  for (std::thread& runner : runners) runner.join();
  for (size_t r = 0; r < results.size(); ++r) {
    EXPECT_EQ(results[r], expected) << "runner " << r;
  }
}

}  // namespace
}  // namespace firehose
