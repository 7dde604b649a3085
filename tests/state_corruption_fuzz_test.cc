// Corruption fuzz for diversifier snapshots: SaveState bytes damaged by
// a bit flip at every byte offset, or truncated at every byte offset,
// must make LoadState return false — never crash, never silently accept —
// and must leave the engine usable (it can still Offer posts and produce
// a fresh valid snapshot afterwards). Runs under ASan in the sanitizer
// presets, so out-of-bounds reads on damaged input become hard failures.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cosine_unibin.h"
#include "src/core/engine.h"
#include "src/stream/post_bin.h"
#include "src/util/binary.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

struct Target {
  std::string name;
  std::unique_ptr<Diversifier> engine;   // snapshot source
  std::unique_ptr<Diversifier> victim;   // corrupted loads go here
  std::function<std::unique_ptr<Diversifier>()> make;  // fresh instance
};

class StateCorruptionFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260801);
    graph_ = testing_util::RandomAuthorGraph(10, 0.35, rng);
    cover_ = CliqueCover::Greedy(graph_);
    stream_ = testing_util::RandomStream(150, 10, 30, rng);
    thresholds_.lambda_c = 6;
    thresholds_.lambda_t_ms = 700;
  }

  /// All four snapshot-capable diversifiers, each warmed on the stream.
  std::vector<Target> MakeTargets() {
    std::vector<Target> targets;
    for (const Algorithm algorithm : kAllAlgorithms) {
      Target t;
      t.name = std::string(AlgorithmName(algorithm));
      t.make = [this, algorithm] {
        return MakeDiversifier(algorithm, thresholds_, &graph_, &cover_);
      };
      t.engine = t.make();
      t.victim = t.make();
      targets.push_back(std::move(t));
    }
    Target cosine;
    cosine.name = "CosineUniBin";
    cosine.make = [this]() -> std::unique_ptr<Diversifier> {
      return std::make_unique<CosineUniBinDiversifier>(thresholds_, 0.7,
                                                       &graph_);
    };
    cosine.engine = cosine.make();
    cosine.victim = cosine.make();
    targets.push_back(std::move(cosine));
    for (Target& t : targets) {
      for (const Post& post : stream_) t.engine->Offer(post);
    }
    return targets;
  }

  /// After a rejected load the victim must be fully usable: it accepts
  /// offers and a pristine snapshot still loads.
  void ExpectUsable(Diversifier* victim, const std::string& pristine,
                    const std::string& context) {
    Post probe = stream_.front();
    probe.time_ms = stream_.back().time_ms + 1;
    victim->Offer(probe);  // must not crash
    BinaryReader reader(pristine);
    EXPECT_TRUE(victim->LoadState(reader)) << context;
  }

  AuthorGraph graph_;
  CliqueCover cover_;
  PostStream stream_;
  DiversityThresholds thresholds_;
};

TEST_F(StateCorruptionFuzzTest, BitFlipAtEveryByteIsRejected) {
  for (Target& t : MakeTargets()) {
    BinaryWriter writer;
    t.engine->SaveState(&writer);
    const std::string pristine(writer.buffer());
    ASSERT_GT(pristine.size(), 16u) << t.name;

    for (size_t at = 0; at < pristine.size(); ++at) {
      std::string damaged = pristine;
      damaged[at] ^= static_cast<char>(1 << (at % 8));
      BinaryReader reader(damaged);
      EXPECT_FALSE(t.victim->LoadState(reader))
          << t.name << ": flip at byte " << at << " accepted";
    }
    ExpectUsable(t.victim.get(), pristine, t.name + " after flips");
  }
}

TEST_F(StateCorruptionFuzzTest, TruncationAtEveryByteIsRejected) {
  for (Target& t : MakeTargets()) {
    BinaryWriter writer;
    t.engine->SaveState(&writer);
    const std::string pristine(writer.buffer());

    for (size_t cut = 0; cut < pristine.size(); ++cut) {
      BinaryReader reader(std::string_view(pristine).substr(0, cut));
      EXPECT_FALSE(t.victim->LoadState(reader))
          << t.name << ": truncation to " << cut << " bytes accepted";
    }
    ExpectUsable(t.victim.get(), pristine, t.name + " after truncations");
  }
}

TEST_F(StateCorruptionFuzzTest, TrailingGarbageIsRejected) {
  for (Target& t : MakeTargets()) {
    BinaryWriter writer;
    t.engine->SaveState(&writer);
    // The CRC envelope is length-prefixed, so extra bytes after it are
    // someone else's data; LoadState itself must not consume or trip on
    // them — but a flipped length that *claims* them must fail the CRC.
    std::string padded(writer.buffer());
    padded += "garbage";
    BinaryReader reader(padded);
    EXPECT_TRUE(t.victim->LoadState(reader)) << t.name;
    EXPECT_EQ(reader.remaining(), 7u) << t.name;
  }
}

TEST_F(StateCorruptionFuzzTest, RejectedLoadResetsToEmpty) {
  // A failed load may not leave half-loaded bins behind: the victim's
  // decisions afterwards must match a brand-new instance, not a hybrid.
  for (Target& t : MakeTargets()) {
    BinaryWriter writer;
    t.engine->SaveState(&writer);
    std::string damaged(writer.buffer());
    damaged[damaged.size() / 2] ^= 0x10;
    BinaryReader reader(damaged);
    ASSERT_FALSE(t.victim->LoadState(reader)) << t.name;

    auto fresh = t.make();
    for (const Post& post : stream_) {
      EXPECT_EQ(t.victim->Offer(post), fresh->Offer(post)) << t.name;
    }
  }
}

TEST_F(StateCorruptionFuzzTest, BinKeysTheDiversifierDoesNotHaveAreRejected) {
  // CRC-valid snapshots whose bin keys do not fit the diversifier: a key
  // past the cover's cliques (CliqueBin) or outside the graph
  // (NeighborBin), a repeated key, or keys out of order. Each must be
  // rejected like any malformed snapshot, not loaded as a bin nobody
  // reads or counted twice.
  const Post& first = stream_.front();
  PostBin bin;
  bin.Push(BinEntry{first.time_ms, first.simhash, first.author, first.id});
  auto snapshot = [&bin](const std::vector<uint64_t>& keys) {
    BinaryWriter payload;
    internal::SaveStats(IngestStats{}, &payload);
    payload.PutVarint(keys.size());
    for (const uint64_t key : keys) {
      payload.PutVarint(key);
      bin.Save(&payload);
    }
    BinaryWriter out;
    internal::WrapChecksummed(payload, &out);
    return std::string(out.buffer());
  };
  ASSERT_GE(cover_.num_cliques(), 2u);
  ASSERT_TRUE(graph_.HasVertex(0) && graph_.HasVertex(1));
  const struct {
    Algorithm algorithm;
    uint64_t foreign_key;
  } cases[] = {
      {Algorithm::kCliqueBin, cover_.num_cliques()},
      {Algorithm::kCliqueBin, 0xFFFFFFFFull},
      {Algorithm::kNeighborBin, graph_.vertices().back() + 1},
  };
  for (const auto& c : cases) {
    const std::string name(AlgorithmName(c.algorithm));
    auto victim = MakeDiversifier(c.algorithm, thresholds_, &graph_, &cover_);
    const std::string valid = snapshot({0, 1});
    BinaryReader valid_reader(valid);
    ASSERT_TRUE(victim->LoadState(valid_reader)) << name;
    const std::vector<std::vector<uint64_t>> bad_keys = {
        {c.foreign_key}, {0, c.foreign_key}, {1, 1}, {1, 0}};
    for (const std::vector<uint64_t>& keys : bad_keys) {
      const std::string bytes = snapshot(keys);
      BinaryReader reader(bytes);
      EXPECT_FALSE(victim->LoadState(reader))
          << name << ": keys " << ::testing::PrintToString(keys);
    }
    // The rejected load reset the victim: it decides like a new instance.
    auto fresh = MakeDiversifier(c.algorithm, thresholds_, &graph_, &cover_);
    EXPECT_EQ(victim->ApproxBytes(), fresh->ApproxBytes()) << name;
    for (const Post& post : stream_) {
      EXPECT_EQ(victim->Offer(post), fresh->Offer(post)) << name;
    }
  }
}

}  // namespace
}  // namespace firehose
