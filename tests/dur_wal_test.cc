// Write-ahead log tests: append/replay round trips, segment rotation and
// retention, sync-policy fsync accounting, and — via the fault-injecting
// FileOps — exhaustive torn-write and bit-rot sweeps proving that
// recovery always yields a clean prefix of the logged records and never
// fails hard on damage (only on genuinely incompatible builds); also the
// exact bytes an append writes.

#include "src/dur/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/dur/fault.h"
#include "src/dur/framing.h"
#include "src/util/binary.h"
#include "src/util/build_info.h"

namespace firehose {
namespace dur {
namespace {

class DurWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("dur_wal_test_tmp_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  WalOptions Options(FileOps* ops = nullptr) {
    WalOptions options;
    options.dir = dir_;
    options.ops = ops;
    return options;
  }

  /// Appends `count` records "record-<seq>" starting from `first`.
  void FillWal(const WalOptions& options, uint64_t first, int count) {
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(first));
    for (int i = 0; i < count; ++i) {
      uint64_t seq = 0;
      ASSERT_TRUE(writer.Append(Payload(first + i), &seq));
      EXPECT_EQ(seq, first + static_cast<uint64_t>(i));
    }
    ASSERT_TRUE(writer.Close());
  }

  static std::string Payload(uint64_t seq) {
    return "record-" + std::to_string(seq);
  }

  std::string dir_;
};

TEST_F(DurWalTest, MissingDirectoryReadsAsEmpty) {
  const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/false);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.next_seq, 0u);
  EXPECT_FALSE(result.corruption_detected);
}

TEST_F(DurWalTest, AppendReadRoundTrip) {
  FillWal(Options(), 0, 25);
  const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/false);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.records.size(), 25u);
  for (uint64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(result.records[i].seq, i);
    EXPECT_EQ(result.records[i].payload, Payload(i));
  }
  EXPECT_EQ(result.next_seq, 25u);
  EXPECT_EQ(result.truncated_bytes, 0u);
}

TEST_F(DurWalTest, ReplayFromCheckpointSkipsPrefix) {
  FillWal(Options(), 0, 20);
  const WalReadResult result = ReadWal(Options(), 12, /*truncate_tail=*/false);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.records.size(), 8u);
  EXPECT_EQ(result.records.front().seq, 12u);
  EXPECT_EQ(result.next_seq, 20u);
}

TEST_F(DurWalTest, RotationSpansSegmentsTransparently) {
  WalOptions options = Options();
  options.segment_bytes = 64;  // a few records per segment
  FillWal(options, 0, 40);
  size_t segments = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_)) {
    ++segments;
  }
  EXPECT_GT(segments, 3u);
  const WalReadResult result = ReadWal(options, 0, /*truncate_tail=*/false);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.records.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) EXPECT_EQ(result.records[i].seq, i);
}

TEST_F(DurWalTest, PruneDropsSegmentsBehindCheckpoint) {
  WalOptions options = Options();
  options.segment_bytes = 64;
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(0));
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(writer.Append(Payload(i)));
  ASSERT_TRUE(writer.Sync());  // flush the open tail so ReadWal sees it
  writer.PruneSegmentsBelow(30);
  // Replay from the checkpoint still works; pruned history is gone but
  // was redundant by definition.
  const WalReadResult result = ReadWal(options, 30, /*truncate_tail=*/false);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.next_seq, 40u);
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(result.records.front().seq, 30u);
  ASSERT_TRUE(writer.Close());
}

TEST_F(DurWalTest, ResumeOpensFreshSegmentAndChains) {
  FillWal(Options(), 0, 10);
  // A recovered process resumes at seq 10 in a new segment.
  FillWal(Options(), 10, 5);
  const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/false);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.records.size(), 15u);
  EXPECT_EQ(result.records.back().seq, 14u);
}

TEST_F(DurWalTest, SyncPolicyControlsFsyncCadence) {
  struct Case {
    const char* spec;
    uint64_t expected_syncs;
  };
  for (const Case& c : {Case{"always", 12}, Case{"every=4", 3},
                        Case{"none", 0}}) {
    std::filesystem::remove_all(dir_);
    FaultFileOps ops(RealFileOps(), FaultPlan{});
    WalOptions options = Options(&ops);
    auto policy = MakeSyncPolicy(c.spec);
    ASSERT_NE(policy, nullptr) << c.spec;
    options.sync = policy.get();
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(0));
    for (int i = 0; i < 12; ++i) ASSERT_TRUE(writer.Append(Payload(i)));
    EXPECT_EQ(ops.syncs(), c.expected_syncs) << c.spec;
    ASSERT_TRUE(writer.Close());
  }
}

TEST_F(DurWalTest, AppendWritesTheFramesOfTheRecordEncoding) {
  // Each segment file is its header frame, then one frame per record:
  // AppendFrame over PutVarint(seq) and PutString(payload). Seqs and
  // payload lengths sit on every varint width boundary, one payload is
  // empty, and the second writer's appends cross one rotation.
  using Record = std::pair<uint64_t, std::string>;
  const auto segment = [](uint64_t first_seq,
                          const std::vector<Record>& records) {
    BinaryWriter header;
    header.PutString("FHWAL");
    header.PutVarint(kStateFormatVersion);
    header.PutString(kBuildVersion);
    header.PutVarint(first_seq);
    std::string bytes;
    AppendFrame(&bytes, header.buffer());
    for (const auto& [seq, payload] : records) {
      BinaryWriter record;
      record.PutVarint(seq);
      record.PutString(payload);
      AppendFrame(&bytes, record.buffer());
    }
    return bytes;
  };
  const auto text = [](size_t length) {
    std::string payload(length, '\0');
    for (size_t i = 0; i < length; ++i) {
      payload[i] = static_cast<char>(i * 131 + length);
    }
    return payload;
  };
  const std::vector<size_t> lengths = {0, 127, 128, 16383, 16384};

  std::map<std::string, std::string> expected;
  // First seqs 0, 126 and 16382: the seqs take 0, 127, 128, 16383 and
  // 16384 along the way.
  for (const uint64_t first : {uint64_t{0}, uint64_t{126}, uint64_t{16382}}) {
    WalOptions options = Options();
    // Past the header and the first four records of the middle writer,
    // one rotation; the other writers stay in one segment.
    options.segment_bytes = first == 126 ? 16384 : 1 << 20;
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(first));
    std::vector<Record> records;
    uint64_t segment_first = first;
    for (size_t i = 0; i < lengths.size(); ++i) {
      const std::string payload = text(lengths[i]);
      uint64_t seq = 0;
      ASSERT_TRUE(writer.Append(payload, &seq));
      ASSERT_EQ(seq, first + i);
      if (first == 126 && i == 4) {
        expected[WalSegmentName(segment_first)] = segment(segment_first,
                                                          records);
        records.clear();
        segment_first = seq;
      }
      records.emplace_back(seq, payload);
    }
    expected[WalSegmentName(segment_first)] = segment(segment_first, records);
    ASSERT_TRUE(writer.Close());
  }

  std::map<std::string, std::string> written;
  for (const std::string& name : RealFileOps()->List(dir_)) {
    ASSERT_TRUE(RealFileOps()->Read(dir_ + "/" + name, &written[name]));
  }
  ASSERT_EQ(written.size(), 4u);
  for (const auto& [name, bytes] : expected) {
    ASSERT_EQ(written.count(name), 1u) << name;
    EXPECT_TRUE(written[name] == bytes)
        << name << ": " << written[name].size() << " bytes written, "
        << bytes.size() << " expected";
  }
}

TEST_F(DurWalTest, MakeSyncPolicyRejectsBadSpecs) {
  EXPECT_NE(MakeSyncPolicy("none"), nullptr);
  EXPECT_NE(MakeSyncPolicy("always"), nullptr);
  EXPECT_NE(MakeSyncPolicy("every=7"), nullptr);
  EXPECT_EQ(MakeSyncPolicy("every=0"), nullptr);
  EXPECT_EQ(MakeSyncPolicy("every="), nullptr);
  EXPECT_EQ(MakeSyncPolicy("every=3x"), nullptr);
  EXPECT_EQ(MakeSyncPolicy("sometimes"), nullptr);
  EXPECT_EQ(MakeSyncPolicy(""), nullptr);
}

TEST_F(DurWalTest, TornWriteAtEveryByteLeavesReplayableCleanPrefix) {
  // Reference: what an undamaged log replays.
  FillWal(Options(), 0, 12);
  const WalReadResult full = ReadWal(Options(), 0, /*truncate_tail=*/false);
  ASSERT_TRUE(full.ok);
  const std::string segment = dir_ + "/" + WalSegmentName(0);
  std::string bytes;
  ASSERT_TRUE(RealFileOps()->Read(segment, &bytes));

  // Re-write the same log through FaultFileOps failing at byte K, for
  // every K: the writer reports the failure, and recovery replays some
  // clean prefix of the records — never garbage, never a crash.
  for (uint64_t k = 0; k < bytes.size(); ++k) {
    std::filesystem::remove_all(dir_);
    FaultPlan plan;
    plan.fail_after_bytes = k;
    FaultFileOps ops(RealFileOps(), plan);
    WalOptions options = Options(&ops);
    WalWriter writer(options);
    bool failed = !writer.Open(0);
    for (int i = 0; !failed && i < 12; ++i) {
      failed = !writer.Append(Payload(i));
    }
    EXPECT_TRUE(failed) << "fail_after_bytes=" << k;
    (void)writer.Close();  // the injected fault makes Close fail by design

    const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/true);
    ASSERT_TRUE(result.ok) << "fail_after_bytes=" << k;
    ASSERT_LE(result.records.size(), full.records.size());
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].seq, full.records[i].seq);
      EXPECT_EQ(result.records[i].payload, full.records[i].payload);
    }
    EXPECT_EQ(result.next_seq, result.records.size());

    // After tail truncation the log must be clean: a second read agrees
    // and reports no damage, and a resumed writer can extend the chain.
    const WalReadResult again = ReadWal(Options(), 0, /*truncate_tail=*/false);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.records.size(), result.records.size());
    EXPECT_FALSE(again.corruption_detected) << "fail_after_bytes=" << k;
    FillWal(Options(), result.next_seq, 3);
    const WalReadResult extended =
        ReadWal(Options(), 0, /*truncate_tail=*/false);
    ASSERT_TRUE(extended.ok);
    EXPECT_EQ(extended.records.size(), result.records.size() + 3);
  }
}

TEST_F(DurWalTest, DroppedTailIsInvisibleAfterRecovery) {
  // Model stdio-buffered bytes that never reached the disk: the writer
  // believes every append succeeded, but everything past the drop point
  // vanishes. Recovery replays the durable prefix.
  const uint64_t drop_at = 200;
  FaultPlan plan;
  plan.drop_after_bytes = drop_at;
  FaultFileOps ops(RealFileOps(), plan);
  WalOptions options = Options(&ops);
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(0));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(writer.Append(Payload(i)));  // the lie
  }
  ASSERT_TRUE(writer.Close());

  const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/true);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(result.records.size(), 30u);
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].payload, Payload(i));
  }
}

TEST_F(DurWalTest, BitFlipAtEveryByteNeverReplaysGarbage) {
  FillWal(Options(), 0, 10);
  const std::string segment = dir_ + "/" + WalSegmentName(0);
  std::string pristine;
  ASSERT_TRUE(RealFileOps()->Read(segment, &pristine));
  const WalReadResult full = ReadWal(Options(), 0, /*truncate_tail=*/false);
  ASSERT_TRUE(full.ok);

  for (size_t at = 0; at < pristine.size(); ++at) {
    std::string damaged = pristine;
    damaged[at] ^= static_cast<char>(1 << (at % 8));
    auto file = RealFileOps()->Create(segment);
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(file->Append(damaged));
    ASSERT_TRUE(file->Close());

    const WalReadResult result =
        ReadWal(Options(), 0, /*truncate_tail=*/false);
    ASSERT_TRUE(result.ok) << "flip at byte " << at;
    // Whatever survives must be a clean prefix of the true records.
    ASSERT_LE(result.records.size(), full.records.size());
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].payload, full.records[i].payload)
          << "flip at byte " << at;
    }
    EXPECT_LT(result.records.size(), full.records.size())
        << "flip at byte " << at << " went undetected";
  }
}

TEST_F(DurWalTest, SequenceGapOrphansLaterSegments) {
  WalOptions options = Options();
  options.segment_bytes = 64;
  FillWal(options, 0, 40);
  // Destroy a middle segment: the records after the hole have no valid
  // predecessors and must not be replayed.
  std::vector<std::string> names = RealFileOps()->List(dir_);
  ASSERT_GT(names.size(), 2u);
  ASSERT_TRUE(RealFileOps()->Remove(dir_ + "/" + names[1]));

  const WalReadResult result = ReadWal(options, 0, /*truncate_tail=*/true);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.corruption_detected);
  EXPECT_LT(result.records.size(), 40u);
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].seq, i);
  }
  // Orphans were deleted: what remains replays clean.
  const WalReadResult again = ReadWal(options, 0, /*truncate_tail=*/false);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.records.size(), result.records.size());
  EXPECT_FALSE(again.corruption_detected);
}

TEST_F(DurWalTest, IncompatibleBuildIsAHardErrorNamingTheWriter) {
  // Handcraft a segment whose header claims a future state format. The
  // checksum is valid, so this is not rot — recovery must refuse loudly
  // rather than silently discard data.
  ASSERT_TRUE(RealFileOps()->CreateDir(dir_));
  BinaryWriter header;
  header.PutString("FHWAL");
  header.PutVarint(kStateFormatVersion + 1);
  header.PutString("firehose 99.0.0");
  header.PutVarint(0);
  std::string frame;
  AppendFrame(&frame, header.buffer());
  auto file = RealFileOps()->Create(dir_ + "/" + WalSegmentName(0));
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->Append(frame));
  ASSERT_TRUE(file->Close());

  const WalReadResult result = ReadWal(Options(), 0, /*truncate_tail=*/true);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("incompatible"), std::string::npos);
  EXPECT_NE(result.error.find("firehose 99.0.0"), std::string::npos);
  EXPECT_NE(result.error.find(BuildInfoString()), std::string::npos);
}

TEST_F(DurWalTest, FailedSyncSurfacesThroughAppend) {
  FaultPlan plan;
  plan.fail_sync = true;
  FaultFileOps ops(RealFileOps(), plan);
  WalOptions options = Options(&ops);
  auto policy = MakeSyncPolicy("always");
  options.sync = policy.get();
  WalWriter writer(options);
  // Open itself SyncDirs, which fail_sync also poisons.
  EXPECT_FALSE(writer.Open(0));
}

}  // namespace
}  // namespace dur
}  // namespace firehose
