// Crash-recovery tests for the DurableSession: a run that dies at any
// point — clean stop, torn WAL write, corrupted checkpoint — and is then
// resumed must make exactly the decisions of an uninterrupted run,
// reconstruct the byte-identical output stream, and end with identical
// serialized engine state. Incompatible or mismatched durable state is a
// hard, named error, never a silent divergence.

#include "src/dur/durable.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/dur/fault.h"
#include "src/dur/framing.h"
#include "src/util/binary.h"
#include "src/io/persist.h"
#include "src/util/build_info.h"
#include "tests/test_util.h"

namespace firehose {
namespace dur {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("crash_recovery_test_tmp_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    Rng rng(20260731);
    graph_ = testing_util::RandomAuthorGraph(14, 0.3, rng);
    cover_ = CliqueCover::Greedy(graph_);
    stream_ = testing_util::RandomStream(320, 14, 40, rng);
    thresholds_.lambda_c = 6;
    thresholds_.lambda_t_ms = 900;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Diversifier> NewEngine(Algorithm algorithm) {
    return MakeDiversifier(algorithm, thresholds_, &graph_, &cover_);
  }

  DurableOptions Options(FileOps* ops = nullptr) {
    DurableOptions options;
    options.dir = dir_;
    options.checkpoint_every = 25;
    options.segment_bytes = 1024;  // several rotations per run
    options.ops = ops;
    return options;
  }

  /// The uninterrupted reference: output TSV text and final engine state.
  void Reference(Algorithm algorithm, std::string* out_tsv,
                 std::string* state) {
    auto engine = NewEngine(algorithm);
    *out_tsv = PostStreamTsvHeader();
    for (const Post& post : stream_) {
      if (engine->Offer(post)) AppendPostTsvLine(post, out_tsv);
    }
    BinaryWriter writer;
    engine->SaveState(&writer);
    *state = writer.Release();
  }

  /// One durable incarnation over `stream_`: recovers, repositions the
  /// simulated output, then processes posts until `stop_after` new posts
  /// (0 = run to completion and Close). Returns false on any io error
  /// (callers treat that as the crash). `out` is the simulated durable
  /// output file, `durable_out_bytes` its last fsynced size.
  bool RunIncarnation(Algorithm algorithm, FileOps* ops, uint64_t stop_after,
                      std::string* out, uint64_t* durable_out_bytes,
                      std::string* error) {
    auto engine = NewEngine(algorithm);
    DurableSession session(Options(ops), engine.get());
    std::string replayed;
    RecoveryReport report;
    if (!session.Recover(
            &report,
            [&](const Post& post) { AppendPostTsvLine(post, &replayed); },
            error)) {
      return false;
    }
    // Reposition the output exactly as the tool does: truncate to the
    // checkpointed offset (or start fresh) and append the replayed tail.
    if (report.found_checkpoint) {
      out->resize(static_cast<size_t>(report.output_bytes));
    } else {
      *out = PostStreamTsvHeader();
    }
    out->append(replayed);

    uint64_t processed = 0;
    for (size_t i = report.next_seq; i < stream_.size(); ++i) {
      bool accepted = false;
      if (!session.Process(stream_[i], &accepted)) {
        *error = "Process failed";
        return false;
      }
      if (accepted) AppendPostTsvLine(stream_[i], out);
      if (session.ShouldCheckpoint()) {
        *durable_out_bytes = out->size();  // "fsync" the simulated output
        if (!session.Checkpoint(*durable_out_bytes)) {
          *error = "Checkpoint failed";
          return false;
        }
      }
      if (stop_after > 0 && ++processed >= stop_after) return true;  // crash
    }
    *durable_out_bytes = out->size();
    if (!session.Close(*durable_out_bytes)) {
      *error = "Close failed";
      return false;
    }
    return true;
  }

  /// Simulates losing everything after the last fsynced offset (the page
  /// cache the crash destroyed). The simulated output only survives up to
  /// `durable_out_bytes`.
  static void CrashOutput(std::string* out, uint64_t durable_out_bytes) {
    if (out->size() > durable_out_bytes) {
      out->resize(static_cast<size_t>(durable_out_bytes));
    }
  }

  std::string dir_;
  AuthorGraph graph_;
  CliqueCover cover_;
  PostStream stream_;
  DiversityThresholds thresholds_;
};

TEST_F(CrashRecoveryTest, UninterruptedDurableRunMatchesPlainRun) {
  for (const Algorithm algorithm : kAllAlgorithms) {
    std::filesystem::remove_all(dir_);
    std::string expected_tsv, expected_state;
    Reference(algorithm, &expected_tsv, &expected_state);

    std::string out;
    uint64_t durable_bytes = 0;
    std::string error;
    ASSERT_TRUE(RunIncarnation(algorithm, nullptr, 0, &out, &durable_bytes,
                               &error))
        << error;
    EXPECT_EQ(out, expected_tsv) << AlgorithmName(algorithm);
  }
}

TEST_F(CrashRecoveryTest, CrashAtEveryCheckpointBoundaryRecoversExactly) {
  const Algorithm algorithm = Algorithm::kCliqueBin;
  std::string expected_tsv, expected_state;
  Reference(algorithm, &expected_tsv, &expected_state);

  // Kill the run after k new posts, for k sweeping across checkpoint
  // boundaries, then resume to completion (possibly crashing repeatedly).
  for (uint64_t k : {1u, 7u, 24u, 25u, 26u, 49u, 50u, 99u, 113u, 200u}) {
    std::filesystem::remove_all(dir_);
    std::string out;
    uint64_t durable_bytes = 0;
    std::string error;
    int incarnations = 0;
    for (;;) {
      const bool done = RunIncarnation(algorithm, nullptr, k, &out,
                                       &durable_bytes, &error);
      ASSERT_TRUE(done) << error;  // io never fails with real ops
      ASSERT_LT(++incarnations, 1000);
      if (out.size() == expected_tsv.size() && out == expected_tsv) {
        // Completed? Only when the whole stream was consumed: run once
        // more with no kill to Close cleanly.
        break;
      }
      CrashOutput(&out, durable_bytes);
    }
    std::string final_out = out;
    uint64_t final_bytes = durable_bytes;
    ASSERT_TRUE(RunIncarnation(algorithm, nullptr, 0, &final_out,
                               &final_bytes, &error))
        << error;
    EXPECT_EQ(final_out, expected_tsv) << "kill every " << k << " posts";

    // The recovered engine's serialized state matches the uninterrupted
    // run's bit for bit.
    auto engine = NewEngine(algorithm);
    DurableSession session(Options(), engine.get());
    RecoveryReport report;
    ASSERT_TRUE(session.Recover(&report, nullptr, &error)) << error;
    EXPECT_EQ(report.next_seq, stream_.size());
    BinaryWriter state;
    engine->SaveState(&state);
    EXPECT_EQ(state.buffer(), expected_state) << "kill every " << k;
  }
}

TEST_F(CrashRecoveryTest, TornWalWriteSweepNeverDiverges) {
  const Algorithm algorithm = Algorithm::kNeighborBin;
  std::string expected_tsv, expected_state;
  Reference(algorithm, &expected_tsv, &expected_state);

  // Measure the total bytes a full durable run appends, then re-run with
  // the byte cursor failing at K for a sweep of K: the incarnation dies
  // on the torn write, recovery (with healthy ops) resumes, and the final
  // output must be byte-identical.
  uint64_t total_bytes = 0;
  {
    std::filesystem::remove_all(dir_);
    FaultFileOps counting(RealFileOps(), FaultPlan{});
    std::string out;
    uint64_t durable_bytes = 0;
    std::string error;
    ASSERT_TRUE(RunIncarnation(algorithm, &counting, 0, &out, &durable_bytes,
                               &error))
        << error;
    total_bytes = counting.bytes_appended();
  }
  ASSERT_GT(total_bytes, 2000u);

  for (uint64_t k = 0; k < total_bytes; k += 137) {
    std::filesystem::remove_all(dir_);
    FaultPlan plan;
    plan.fail_after_bytes = k;
    FaultFileOps faulty(RealFileOps(), plan);
    std::string out;
    uint64_t durable_bytes = 0;
    std::string error;
    if (!RunIncarnation(algorithm, &faulty, 0, &out, &durable_bytes,
                        &error)) {
      CrashOutput(&out, durable_bytes);  // the crash ate the page cache
    }
    // Healthy resume finishes the job.
    std::string final_out = out;
    uint64_t final_bytes = durable_bytes;
    ASSERT_TRUE(RunIncarnation(algorithm, nullptr, 0, &final_out,
                               &final_bytes, &error))
        << "fail at byte " << k << ": " << error;
    EXPECT_EQ(final_out, expected_tsv) << "fail at byte " << k;
  }
}

TEST_F(CrashRecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  const Algorithm algorithm = Algorithm::kUniBin;
  std::string expected_tsv, expected_state;
  Reference(algorithm, &expected_tsv, &expected_state);

  // Crash mid-run with at least two checkpoints on disk.
  std::string out;
  uint64_t durable_bytes = 0;
  std::string error;
  ASSERT_TRUE(RunIncarnation(algorithm, nullptr, 80, &out, &durable_bytes,
                             &error))
      << error;
  CrashOutput(&out, durable_bytes);

  // Rot a byte in the middle of the newest checkpoint.
  std::vector<std::string> checkpoints;
  for (const std::string& name : RealFileOps()->List(dir_)) {
    uint64_t seq = 0;
    if (ParseCheckpointName(name, &seq)) checkpoints.push_back(name);
  }
  ASSERT_GE(checkpoints.size(), 2u);
  const std::string newest = dir_ + "/" + checkpoints.back();
  std::string bytes;
  ASSERT_TRUE(RealFileOps()->Read(newest, &bytes));
  bytes[bytes.size() / 2] ^= 0x20;
  auto file = RealFileOps()->Create(newest);
  ASSERT_TRUE(file->Append(bytes));
  ASSERT_TRUE(file->Close());

  // Recovery must fall back to the older checkpoint, replay the WAL gap
  // (which retention deliberately kept), and still converge exactly.
  // The output beyond the older checkpoint's offset is stale; recovery
  // truncates it, so hand the resumed run only the prefix it reports.
  std::string final_out = out;
  uint64_t final_bytes = 0;
  ASSERT_TRUE(RunIncarnation(algorithm, nullptr, 0, &final_out, &final_bytes,
                             &error))
      << error;
  EXPECT_EQ(final_out, expected_tsv);
}

TEST_F(CrashRecoveryTest, IncompatibleCheckpointIsAHardNamedError) {
  // Handcraft a checkpoint claiming a future state format: intact CRC,
  // so this is incompatibility, not rot — recovery must refuse loudly.
  ASSERT_TRUE(RealFileOps()->CreateDir(dir_));
  BinaryWriter payload;
  payload.PutString("FHCKP");
  payload.PutVarint(kStateFormatVersion + 7);
  payload.PutString("firehose 99.1.0");
  payload.PutString("CliqueBin");
  payload.PutVarint(5);
  payload.PutVarint(0);
  payload.PutString("");
  std::string frame;
  AppendFrame(&frame, payload.buffer());
  auto file = RealFileOps()->Create(dir_ + "/" + CheckpointName(5));
  ASSERT_TRUE(file->Append(frame));
  ASSERT_TRUE(file->Close());

  auto engine = NewEngine(Algorithm::kCliqueBin);
  DurableSession session(Options(), engine.get());
  RecoveryReport report;
  std::string error;
  EXPECT_FALSE(session.Recover(&report, nullptr, &error));
  EXPECT_NE(error.find("incompatible"), std::string::npos) << error;
  EXPECT_NE(error.find("firehose 99.1.0"), std::string::npos) << error;
  EXPECT_NE(error.find(BuildInfoString()), std::string::npos) << error;
}

TEST_F(CrashRecoveryTest, AlgorithmMismatchIsAHardNamedError) {
  // Checkpoint with UniBin, then try to resume as CliqueBin.
  std::string out;
  uint64_t durable_bytes = 0;
  std::string error;
  ASSERT_TRUE(RunIncarnation(Algorithm::kUniBin, nullptr, 60, &out,
                             &durable_bytes, &error))
      << error;

  auto engine = NewEngine(Algorithm::kCliqueBin);
  DurableSession session(Options(), engine.get());
  RecoveryReport report;
  EXPECT_FALSE(session.Recover(&report, nullptr, &error));
  EXPECT_NE(error.find("UniBin"), std::string::npos) << error;
  EXPECT_NE(error.find("CliqueBin"), std::string::npos) << error;
}

TEST_F(CrashRecoveryTest, UnrecognizedSyncSpecIsAHardNamedError) {
  // A typo must not silently downgrade the run to no fsyncs at all.
  auto engine = NewEngine(Algorithm::kUniBin);
  DurableOptions options = Options();
  options.sync_spec = "alwyas";
  DurableSession session(options, engine.get());
  RecoveryReport report;
  std::string error;
  EXPECT_FALSE(session.Recover(&report, nullptr, &error));
  EXPECT_EQ(error, "unrecognized --wal_sync spec: alwyas");
  bool accepted = false;
  EXPECT_FALSE(session.Process(stream_.front(), &accepted));
  EXPECT_FALSE(std::filesystem::exists(dir_));  // nothing was written
}

TEST_F(CrashRecoveryTest, ProcessBeforeRecoverRefuses) {
  auto engine = NewEngine(Algorithm::kUniBin);
  DurableSession session(Options(), engine.get());
  bool accepted = false;
  EXPECT_FALSE(session.Process(stream_.front(), &accepted));
}

TEST_F(CrashRecoveryTest, PostRecordRoundTripsAndRejectsDamage) {
  Post post;
  post.id = 1234;
  post.author = 77;
  post.time_ms = -5;  // signed timestamps survive
  post.simhash = 0xDEADBEEFCAFEF00Dull;
  post.text = "tabs\tand\nnewlines";
  const std::string record = EncodePostRecord(post);
  Post decoded;
  ASSERT_TRUE(DecodePostRecord(record, &decoded));
  EXPECT_EQ(decoded.id, post.id);
  EXPECT_EQ(decoded.author, post.author);
  EXPECT_EQ(decoded.time_ms, post.time_ms);
  EXPECT_EQ(decoded.simhash, post.simhash);
  EXPECT_EQ(decoded.text, post.text);
  for (size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_FALSE(DecodePostRecord(record.substr(0, cut), &decoded))
        << "truncated at " << cut;
  }
  EXPECT_FALSE(DecodePostRecord(record + "x", &decoded));
}

}  // namespace
}  // namespace dur
}  // namespace firehose
