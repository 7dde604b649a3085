// Property / metamorphic tests for PostBin's structure-of-arrays ring
// view: under random push/evict interleavings (driving wraparound and
// growth), the at-most-two contiguous lane segments concatenated must
// equal FromOldest iteration entry for entry, CountOlderThan must agree
// with a linear scan, and Save/Load must preserve the view.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stream/post_bin.h"
#include "src/util/binary.h"
#include "src/util/random.h"

namespace firehose {
namespace {

bool SameEntry(const BinEntry& a, const BinEntry& b) {
  return a.time_ms == b.time_ms && a.simhash == b.simhash &&
         a.author == b.author && a.post_id == b.post_id;
}

/// Flattens the segment view into one oldest→newest entry list.
std::vector<BinEntry> FlattenSegments(const PostBin& bin) {
  PostBin::LaneSpan segments[2];
  const size_t num_segments = bin.Segments(segments);
  std::vector<BinEntry> entries;
  entries.reserve(bin.size());
  for (size_t s = 0; s < num_segments; ++s) {
    const PostBin::LaneSpan& seg = segments[s];
    for (size_t j = 0; j < seg.size; ++j) {
      entries.push_back(BinEntry{seg.time_ms[j], seg.simhash[j], seg.author[j],
                                 seg.post_id[j]});
    }
  }
  return entries;
}

/// The properties every reachable bin state must satisfy.
void CheckViewInvariants(const PostBin& bin) {
  const std::vector<BinEntry> flat = FlattenSegments(bin);
  ASSERT_EQ(flat.size(), bin.size());

  // Segments concatenated == FromOldest iteration == reversed FromNewest.
  for (size_t i = 0; i < bin.size(); ++i) {
    EXPECT_TRUE(SameEntry(flat[i], bin.FromOldest(i))) << "i=" << i;
    EXPECT_TRUE(SameEntry(flat[i], bin.FromNewest(bin.size() - 1 - i)))
        << "i=" << i;
  }

  // Lanes are time-ordered (the bin's push precondition is preserved).
  for (size_t i = 1; i < flat.size(); ++i) {
    EXPECT_LE(flat[i - 1].time_ms, flat[i].time_ms);
  }

  // CountOlderThan agrees with a linear scan at cutoffs straddling every
  // entry boundary (and beyond both ends).
  std::vector<int64_t> cutoffs = {INT64_MIN, 0, INT64_MAX};
  for (const BinEntry& entry : flat) {
    cutoffs.push_back(entry.time_ms);
    cutoffs.push_back(entry.time_ms + 1);
  }
  for (int64_t cutoff : cutoffs) {
    size_t linear = 0;
    while (linear < flat.size() && flat[linear].time_ms < cutoff) ++linear;
    EXPECT_EQ(bin.CountOlderThan(cutoff), linear) << "cutoff=" << cutoff;
  }
}

TEST(SoaViewPropertyTest, RandomPushEvictInterleavings) {
  Rng rng(20260806);
  for (int round = 0; round < 40; ++round) {
    PostBin bin;
    int64_t now = 0;
    uint64_t next_id = 0;
    for (int op = 0; op < 300; ++op) {
      if (rng.Bernoulli(0.7)) {
        now += static_cast<int64_t>(rng.UniformInt(50));
        bin.Push(BinEntry{now, rng.Next(),
                          static_cast<AuthorId>(rng.UniformInt(32)),
                          static_cast<PostId>(next_id++)});
      } else {
        // Evict a random fraction of the window — sometimes nothing,
        // sometimes everything — to walk the head across the ring.
        const int64_t cutoff = now - static_cast<int64_t>(rng.UniformInt(400));
        const size_t before = bin.size();
        const size_t expected = bin.CountOlderThan(cutoff);
        EXPECT_EQ(bin.EvictOlderThan(cutoff), expected);
        EXPECT_EQ(bin.size(), before - expected);
      }
      if (op % 17 == 0) CheckViewInvariants(bin);
    }
    CheckViewInvariants(bin);
  }
}

TEST(SoaViewPropertyTest, WraparoundProducesTwoOrderedSegments) {
  PostBin bin;
  // Fill to capacity 8, evict the front, refill: head > 0 forces a wrap.
  for (int i = 0; i < 8; ++i) {
    bin.Push(BinEntry{i, static_cast<uint64_t>(i), 0, static_cast<PostId>(i)});
  }
  ASSERT_EQ(bin.EvictOlderThan(5), 5u);
  for (int i = 8; i < 12; ++i) {
    bin.Push(BinEntry{i, static_cast<uint64_t>(i), 0, static_cast<PostId>(i)});
  }
  PostBin::LaneSpan segments[2];
  ASSERT_EQ(bin.Segments(segments), 2u);
  EXPECT_EQ(segments[0].size + segments[1].size, bin.size());
  EXPECT_GT(segments[0].size, 0u);
  EXPECT_GT(segments[1].size, 0u);
  // Oldest→newest across the seam.
  EXPECT_LT(segments[0].time_ms[segments[0].size - 1], segments[1].time_ms[0]);
  CheckViewInvariants(bin);
}

TEST(SoaViewPropertyTest, GrowthPreservesViewAndOrder) {
  PostBin bin;
  // Interleave pushes and evictions so growth happens with head_ != 0.
  int64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    now += 3;
    bin.Push(BinEntry{now, static_cast<uint64_t>(i) * 7919, 1,
                      static_cast<PostId>(i)});
    if (i == 50) bin.EvictOlderThan(now - 30);
  }
  CheckViewInvariants(bin);
  EXPECT_EQ(bin.FromNewest(0).post_id, 199u);
}

TEST(SoaViewPropertyTest, SaveLoadPreservesViewAndCapacity) {
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    PostBin bin;
    int64_t now = 0;
    for (int i = 0; i < 64 + round * 13; ++i) {
      now += static_cast<int64_t>(rng.UniformInt(20));
      bin.Push(BinEntry{now, rng.Next(),
                        static_cast<AuthorId>(rng.UniformInt(16)),
                        static_cast<PostId>(i)});
      if (rng.Bernoulli(0.1)) bin.EvictOlderThan(now - 100);
    }

    BinaryWriter writer;
    bin.Save(&writer);
    PostBin restored;
    BinaryReader reader(writer.buffer());
    ASSERT_TRUE(restored.Load(reader));
    ASSERT_TRUE(reader.AtEnd());

    ASSERT_EQ(restored.size(), bin.size());
    EXPECT_EQ(restored.ApproxBytes(), bin.ApproxBytes());
    const std::vector<BinEntry> original = FlattenSegments(bin);
    const std::vector<BinEntry> loaded = FlattenSegments(restored);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_TRUE(SameEntry(loaded[i], original[i])) << "i=" << i;
    }
    CheckViewInvariants(restored);
  }
}

TEST(SoaViewPropertyTest, EmptyBinHasNoSegments) {
  PostBin bin;
  PostBin::LaneSpan segments[2];
  EXPECT_EQ(bin.Segments(segments), 0u);
  EXPECT_EQ(bin.CountOlderThan(123), 0u);
  bin.Push(BinEntry{10, 1, 2, 3});
  ASSERT_EQ(bin.EvictOlderThan(11), 1u);
  EXPECT_EQ(bin.Segments(segments), 0u);  // emptied after wrap state
}

}  // namespace
}  // namespace firehose
