// Race-hunting stress tests for the concurrent runtime. Every test here is
// written to maximize the interleavings the scheduler can produce —
// randomized backoff on both sides of each queue, repeated
// construct/run/join/destroy rounds, tiny queue capacities that force
// constant full/empty boundary crossings, and explicit shutdown/drain
// orderings — because those are exactly the schedules where a wrong
// std::memory_order silently corrupts results. Run them under the `tsan`
// preset to turn any protocol violation into a hard failure:
//
//   cmake --preset tsan && cmake --build --preset tsan -j
//   ctest --preset tsan -R RaceStress
//
// They also run (slower, unsanitized) in the default suite, where the
// assertions still verify FIFO order, exactly-once delivery and
// sequential equivalence.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/eval/experiment.h"
#include "src/runtime/sharded.h"
#include "src/runtime/spsc_queue.h"
#include "tests/test_util.h"
#include "tests/tsan_annotations.h"

namespace firehose {
namespace {

using testing_util::RandomBackoff;
using testing_util::ScaledIterations;

// --- SpscQueue ---------------------------------------------------------------

/// One producer + one consumer hammer the queue with randomized pacing;
/// FIFO order and exactly-once transfer must survive every interleaving.
TEST(RaceStressSpscQueue, FifoUnderRandomizedBackoff) {
  const int kItems = ScaledIterations(120000);
  for (const size_t capacity : {size_t{1}, size_t{4}, size_t{64}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SpscQueue<int> queue(capacity);
      std::vector<int> received;
      received.reserve(static_cast<size_t>(kItems));

      std::thread producer([&queue, kItems, seed] {
        RandomBackoff backoff(seed * 7919);
        for (int i = 0; i < kItems; ++i) {
          while (!queue.TryPush(i)) backoff.Pause();
          backoff.Pause();
        }
      });
      std::thread consumer([&queue, &received, kItems, seed] {
        RandomBackoff backoff(seed * 104729);
        while (static_cast<int>(received.size()) < kItems) {
          int value;
          if (queue.TryPop(&value)) {
            received.push_back(value);
          } else {
            backoff.Pause();
          }
          const size_t size = queue.ApproxSize();
          ASSERT_LE(size, queue.capacity());
        }
      });
      producer.join();
      consumer.join();

      ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
      for (int i = 0; i < kItems; ++i) {
        ASSERT_EQ(received[static_cast<size_t>(i)], i)
            << "capacity=" << capacity << " seed=" << seed;
      }
    }
  }
}

/// The done-flag shutdown protocol: producer publishes a done flag after
/// its last push; consumer drains everything it can see after observing
/// the flag. Nothing may be lost, and destroying the queue right after the
/// join must be safe. Many short rounds stress the start/stop edges.
TEST(RaceStressSpscQueue, ShutdownDrainLosesNothing) {
  const int kRounds = ScaledIterations(600);
  const int kItems = 200;
  for (int round = 0; round < kRounds; ++round) {
    SpscQueue<int> queue(8);
    std::atomic<bool> done{false};
    int64_t consumed_sum = 0;
    int consumed = 0;

    std::thread producer([&queue, &done, round] {
      RandomBackoff backoff(static_cast<uint64_t>(round) * 31 + 1);
      for (int i = 0; i < kItems; ++i) {
        while (!queue.TryPush(i)) backoff.Pause();
      }
      done.store(true, std::memory_order_release);
    });

    RandomBackoff backoff(static_cast<uint64_t>(round) * 37 + 2);
    for (;;) {
      int value;
      if (queue.TryPop(&value)) {
        consumed_sum += value;
        ++consumed;
      } else if (done.load(std::memory_order_acquire)) {
        // One more pop attempt: items pushed between the failed pop and
        // the flag read are still in the queue.
        if (!queue.TryPop(&value)) break;
        consumed_sum += value;
        ++consumed;
      } else {
        backoff.Pause();
      }
    }
    producer.join();

    ASSERT_EQ(consumed, kItems) << "round " << round;
    ASSERT_EQ(consumed_sum, int64_t{kItems} * (kItems - 1) / 2);
  }
}

/// Non-trivial payloads: slot reuse copies/destroys std::shared_ptr control
/// blocks across the two threads, so any hole in the release/acquire
/// protocol shows up as a TSan report or a refcount corruption (ASan).
TEST(RaceStressSpscQueue, SharedPtrPayloadSurvivesSlotReuse) {
  const int kItems = ScaledIterations(60000);
  SpscQueue<std::shared_ptr<uint64_t>> queue(4);
  std::atomic<uint64_t> consumed_sum{0};

  std::thread consumer([&queue, &consumed_sum, kItems] {
    RandomBackoff backoff(11);
    int remaining = kItems;
    std::shared_ptr<uint64_t> item;
    while (remaining > 0) {
      if (queue.TryPop(&item)) {
        consumed_sum.fetch_add(*item, std::memory_order_relaxed);
        item.reset();
        --remaining;
      } else {
        backoff.Pause();
      }
    }
  });

  RandomBackoff backoff(13);
  uint64_t expected_sum = 0;
  for (int i = 0; i < kItems; ++i) {
    auto value = std::make_shared<uint64_t>(static_cast<uint64_t>(i) * 3 + 1);
    expected_sum += *value;
    while (!queue.TryPush(value)) backoff.Pause();
  }
  consumer.join();
  EXPECT_EQ(consumed_sum.load(), expected_sum);
}

/// Index wraparound: start both indices just below SIZE_MAX so the
/// monotonically increasing positions wrap modulo 2^64 mid-test. The
/// full/empty arithmetic (`head - tail`) must be oblivious to the wrap.
TEST(RaceStressSpscQueue, TwoThreadsAcrossIndexWraparound) {
  const int kItems = ScaledIterations(60000);
  SpscQueue<int> queue(8);
  queue.TESTONLY_SetStartIndex(SIZE_MAX - static_cast<size_t>(kItems) / 2);
  std::vector<int> received;
  received.reserve(static_cast<size_t>(kItems));

  std::thread producer([&queue, kItems] {
    RandomBackoff backoff(17);
    for (int i = 0; i < kItems; ++i) {
      while (!queue.TryPush(i)) backoff.Pause();
    }
  });
  RandomBackoff backoff(19);
  while (static_cast<int>(received.size()) < kItems) {
    int value;
    if (queue.TryPop(&value)) {
      received.push_back(value);
    } else {
      backoff.Pause();
    }
  }
  producer.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[static_cast<size_t>(i)], i);
  }
}

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
