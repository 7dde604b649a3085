#include "src/simhash/permuted_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/bitops.h"
#include "src/util/random.h"

namespace firehose {
namespace {

TEST(TableCountTest, MankuConfiguration) {
  // The WWW'07 paper's regime: k = 3 over 6 blocks -> C(6,3) = 20 tables.
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(6, 3), 20);
}

TEST(TableCountTest, FirehoseRegimeExplodes) {
  // λc = 18 needs num_blocks > 18; the table count is large while the
  // exact-match prefix shrinks to ~6 bits — the paper's §3 argument.
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(20, 18), 190);
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(24, 18),
            134596);  // C(24,18)

  // Within a 64-table probe budget no λc = 18 configuration can prune:
  // each keeps at least as many tables T as its p-bit prefix has values,
  // so a probe examines ~T·n/2^p >= n candidates.
  int configurations = 0;
  for (int blocks = 19; blocks <= 64; ++blocks) {
    const int64_t tables = PermutedSimHashIndex::TableCountFor(blocks, 18);
    if (tables < 0 || tables > 64) continue;
    const PermutedSimHashIndex index(blocks, 18, /*max_tables=*/64);
    ASSERT_TRUE(index.valid()) << blocks;
    ASSERT_LT(index.PrefixBits(), 63) << blocks;
    EXPECT_GE(static_cast<uint64_t>(index.NumTables()),
              uint64_t{1} << index.PrefixBits())
        << "blocks=" << blocks;
    ++configurations;
  }
  EXPECT_GT(configurations, 0);
}

TEST(TableCountTest, InvalidConfigurations) {
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(6, 0), -1);
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(6, 6), -1);
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(6, 7), -1);
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(65, 3), -1);
}

TEST(TableCountTest, OverflowGuard) {
  EXPECT_EQ(PermutedSimHashIndex::TableCountFor(64, 32), -1);
}

TEST(PermutedIndexTest, ValidityAndTableCount) {
  PermutedSimHashIndex index(6, 3);
  EXPECT_TRUE(index.valid());
  EXPECT_EQ(index.NumTables(), 20);
  EXPECT_GE(index.PrefixBits(), 30);  // 3 blocks of ~10-11 bits
}

TEST(PermutedIndexTest, InfeasibleConfigIsInvalid) {
  PermutedSimHashIndex index(6, 0);
  EXPECT_FALSE(index.valid());
  EXPECT_EQ(index.NumTables(), 0);
}

TEST(PermutedIndexTest, MaxTablesCapRejectsHugeConfigs) {
  PermutedSimHashIndex index(24, 12, /*max_tables=*/1000);
  EXPECT_FALSE(index.valid());
}

TEST(PermutedIndexTest, FindsExactMatch) {
  PermutedSimHashIndex index(6, 3);
  index.Insert(0xDEADBEEFCAFEF00DULL, 1);
  index.Build();
  const auto hits = index.Query(0xDEADBEEFCAFEF00DULL);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
}

TEST(PermutedIndexTest, FindsNearbyKeysWithinDistance) {
  PermutedSimHashIndex index(6, 3);
  const uint64_t base = 0x0123456789ABCDEFULL;
  index.Insert(base, 7);
  index.Build();
  // Flip up to 3 bits: must be found.
  EXPECT_EQ(index.Query(base ^ 0x1ULL).size(), 1u);
  EXPECT_EQ(index.Query(base ^ 0x3ULL).size(), 1u);
  EXPECT_EQ(index.Query(base ^ 0x8001ULL).size(), 1u);
  EXPECT_EQ(index.Query(base ^ (1ULL << 63) ^ (1ULL << 0) ^ (1ULL << 30))
                .size(),
            1u);
}

TEST(PermutedIndexTest, RejectsKeysBeyondDistance) {
  PermutedSimHashIndex index(6, 3);
  const uint64_t base = 0x0123456789ABCDEFULL;
  index.Insert(base, 7);
  index.Build();
  // 4 flipped bits is past the threshold.
  EXPECT_TRUE(index.Query(base ^ 0xFULL).empty());
}

TEST(PermutedIndexTest, QueryBeforeBuildReturnsNothing) {
  PermutedSimHashIndex index(6, 3);
  index.Insert(42, 1);
  EXPECT_TRUE(index.Query(42).empty());
}

TEST(PermutedIndexTest, DeduplicatesIdsAcrossTables) {
  PermutedSimHashIndex index(6, 2);
  index.Insert(100, 5);
  index.Build();
  // The exact key matches in every table; the id must appear once.
  const auto hits = index.Query(100);
  EXPECT_EQ(hits.size(), 1u);
}

class PermutedIndexPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(PermutedIndexPropertyTest, AgreesWithLinearScan) {
  const auto [num_blocks, max_distance, seed] = GetParam();
  Rng rng(seed);
  PermutedSimHashIndex index(num_blocks, max_distance);
  ASSERT_TRUE(index.valid());

  std::vector<uint64_t> keys;
  for (uint64_t id = 0; id < 300; ++id) {
    // Mix of random keys and clustered keys near a few centers so queries
    // actually have near neighbors.
    uint64_t key = rng.Next();
    if (id % 3 != 0) {
      key = keys.empty() ? key : keys[rng.UniformInt(keys.size())];
      const int flips = static_cast<int>(rng.UniformInt(
          static_cast<uint64_t>(max_distance) + 2));
      for (int f = 0; f < flips; ++f) key ^= 1ULL << rng.UniformInt(64);
    }
    keys.push_back(key);
    index.Insert(key, id);
  }
  index.Build();

  for (int q = 0; q < 50; ++q) {
    uint64_t query = keys[rng.UniformInt(keys.size())];
    const int flips = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(max_distance) + 2));
    for (int f = 0; f < flips; ++f) query ^= 1ULL << rng.UniformInt(64);

    std::vector<uint64_t> expected;
    for (uint64_t id = 0; id < keys.size(); ++id) {
      if (HammingDistance64(keys[id], query) <= max_distance) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(index.Query(query), expected);
  }
  EXPECT_GT(index.total_queries(), 0u);
  EXPECT_GT(index.ApproxBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PermutedIndexPropertyTest,
    ::testing::Values(std::make_tuple(6, 3, 1ULL), std::make_tuple(6, 3, 2ULL),
                      std::make_tuple(4, 2, 3ULL), std::make_tuple(8, 3, 4ULL),
                      std::make_tuple(5, 2, 5ULL),
                      std::make_tuple(10, 4, 6ULL)));

}  // namespace
}  // namespace firehose
