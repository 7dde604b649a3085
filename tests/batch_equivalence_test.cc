// Batch-vs-single equivalence property test: MultiUserEngine::OfferBatch
// must be an exact semantic alias for per-post Offer — identical
// deliveries in identical order and identical counters — for both
// multi-user engines and every algorithm, across random burst sizes that
// straddle λt eviction boundaries.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::RandomAuthorGraph;
using testing_util::RandomStream;

// Random burst partition of [0, n): mostly small bursts, with occasional
// jumps up to 4096 so large bursts cross many eviction boundaries.
std::vector<size_t> RandomBurstSizes(size_t n, Rng& rng) {
  std::vector<size_t> sizes;
  size_t remaining = n;
  while (remaining > 0) {
    size_t burst;
    switch (rng.UniformInt(4)) {
      case 0:
        burst = 1;
        break;
      case 1:
        burst = 1 + static_cast<size_t>(rng.UniformInt(8));
        break;
      case 2:
        burst = 1 + static_cast<size_t>(rng.UniformInt(128));
        break;
      default:
        burst = 1 + static_cast<size_t>(rng.UniformInt(4096));
    }
    burst = std::min(burst, remaining);
    sizes.push_back(burst);
    remaining -= burst;
  }
  return sizes;
}

void ExpectStatsEqual(const IngestStats& a, const IngestStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.posts_in, b.posts_in) << label;
  EXPECT_EQ(a.posts_out, b.posts_out) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
  EXPECT_EQ(a.insertions, b.insertions) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
}

// Overlapping-subscription user population (hub copies) so the S engine
// actually shares components.
std::vector<User> OverlappingUsers(int num_users, int num_authors, Rng& rng) {
  std::vector<std::vector<AuthorId>> hubs(3);
  for (auto& hub : hubs) {
    const int hub_size = 2 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < hub_size; ++i) {
      hub.push_back(static_cast<AuthorId>(rng.UniformInt(num_authors)));
    }
    std::sort(hub.begin(), hub.end());
    hub.erase(std::unique(hub.begin(), hub.end()), hub.end());
  }
  std::vector<User> users;
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs = hubs[rng.UniformInt(hubs.size())];
    const int extra = static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < extra; ++i) {
      subs.push_back(static_cast<AuthorId>(rng.UniformInt(num_authors)));
    }
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    users.push_back(User{u, std::move(subs), std::nullopt});
  }
  return users;
}

class BatchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEquivalenceTest, MultiUserEnginesMatchPerPostOffer) {
  Rng rng(GetParam() * 31 + 7);
  const int num_authors = 16;
  const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.25, rng);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 300;
  const std::vector<User> users = OverlappingUsers(8, num_authors, rng);
  const PostStream stream = RandomStream(2500, num_authors, 20, rng);

  for (Algorithm algorithm : kAllAlgorithms) {
    for (const bool shared : {false, true}) {
      auto single = shared ? MakeSUserEngine(algorithm, t, graph, users)
                           : MakeMUserEngine(algorithm, t, graph, users);
      auto batched = shared ? MakeSUserEngine(algorithm, t, graph, users)
                            : MakeMUserEngine(algorithm, t, graph, users);
      const std::string label = std::string(AlgorithmName(algorithm)) +
                                (shared ? "/S" : "/M") +
                                " seed=" + std::to_string(GetParam());

      // Per-post twin: deliveries as (post_index, user) pairs.
      std::vector<std::pair<uint32_t, UserId>> single_deliveries;
      std::vector<UserId> delivered;
      for (size_t i = 0; i < stream.size(); ++i) {
        single->Offer(stream[i], &delivered);
        for (UserId user : delivered) {
          single_deliveries.emplace_back(static_cast<uint32_t>(i), user);
        }
      }

      // Batched twin over random bursts.
      std::vector<std::pair<uint32_t, UserId>> batch_deliveries;
      std::vector<MultiUserEngine::BatchDelivery> burst_deliveries;
      size_t start = 0;
      for (const size_t burst : RandomBurstSizes(stream.size(), rng)) {
        const std::span<const Post> posts(&stream[start], burst);
        const size_t count =
            batched->OfferBatch(posts, &burst_deliveries);
        ASSERT_EQ(count, burst_deliveries.size()) << label;
        for (const MultiUserEngine::BatchDelivery& d : burst_deliveries) {
          ASSERT_LT(d.post_index, burst) << label;
          batch_deliveries.emplace_back(
              static_cast<uint32_t>(start + d.post_index), d.user);
        }
        start += burst;
      }

      ASSERT_EQ(single_deliveries, batch_deliveries) << label;
      ExpectStatsEqual(single->AggregateStats(), batched->AggregateStats(),
                       label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceTest,
                         ::testing::Values(1u, 42u, 20260808u));

}  // namespace
}  // namespace firehose
