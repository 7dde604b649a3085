// End-to-end crash-recovery smoke: drives the real firehose_diversify
// binary (path injected by CMake as FIREHOSE_DIVERSIFY_BIN) in durable
// mode and SIGKILLs it mid-run — repeatedly — via the FIREHOSE_CRASH_AFTER
// hook, until an incarnation finally runs to completion. The surviving
// output TSV and metrics snapshot must be byte-identical to those of an
// uninterrupted run, and the durable output must match the plain batch
// path, paced by --live or not. Also covers `--version` and the hard
// error for resuming with a mismatched engine.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/firehose.h"

#ifndef FIREHOSE_DIVERSIFY_BIN
#error "FIREHOSE_DIVERSIFY_BIN must point at the firehose_diversify binary"
#endif

namespace firehose {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CrashRecoverySmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CleanArtifacts();

    // Small but non-trivial workload: enough posts that a kill-loop takes
    // many incarnations, small enough that each incarnation is cheap.
    SocialGraphOptions social_options;
    social_options.num_authors = 150;
    social_options.num_communities = 6;
    social_options.avg_followees = 15.0;
    social_options.seed = 20260806;
    const FollowGraph social = GenerateSocialGraph(social_options);
    std::vector<AuthorId> authors;
    for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
    const auto similarities = AllPairsSimilarity(social, authors, 0.05);
    AuthorGraph graph =
        AuthorGraph::FromSimilarities(authors, similarities, 0.7);

    StreamGenOptions stream_options;
    stream_options.posts_per_author = 8.0;
    stream_options.seed = 7;
    const SimHasher hasher;
    const PostStream stream = GenerateStream(graph, hasher, stream_options);
    ASSERT_GT(stream.size(), 400u);
    stream_size_ = stream.size();

    ASSERT_TRUE(SaveAuthorGraph(graph, kGraphPath));
    ASSERT_TRUE(SavePostStream(stream, kStreamPath));
  }

  void TearDown() override { CleanArtifacts(); }

  void CleanArtifacts() {
    for (const char* dir : {"crash_smoke_wal_ref", "crash_smoke_wal_kill",
                            "crash_smoke_wal_mismatch"}) {
      std::filesystem::remove_all(dir);
    }
    for (const char* path :
         {kGraphPath, kStreamPath, "crash_smoke_ref.tsv",
          "crash_smoke_kill.tsv", "crash_smoke_plain.tsv",
          "crash_smoke_ref_metrics.json", "crash_smoke_kill_metrics.json",
          "crash_smoke_stdout.txt"}) {
      std::remove(path);
    }
  }

  /// Runs the binary; `env` is a `NAME=value` prefix (or "") interpreted
  /// by the shell, so the crash hook reaches only the child process.
  int Run(const std::string& env, const std::string& extra_flags,
          const std::string& capture = "> /dev/null 2>&1") {
    const std::string command = env + (env.empty() ? "" : " ") + "\"" +
                                FIREHOSE_DIVERSIFY_BIN +
                                "\" --graph=" + kGraphPath +
                                " --stream=" + kStreamPath + " " +
                                extra_flags + " " + capture;
    return std::system(command.c_str());
  }

  /// SIGKILLs the binary after `crash_after` posts per incarnation until
  /// one incarnation survives to exit 0. Returns the incarnation count.
  int KillLoop(const std::string& durable_flags, uint64_t crash_after,
               uint64_t min_progress_per_run) {
    const std::string env =
        "FIREHOSE_CRASH_AFTER=" + std::to_string(crash_after);
    const int limit =
        static_cast<int>(stream_size_ / min_progress_per_run) + 10;
    for (int runs = 1; runs <= limit; ++runs) {
      const int exit_code = Run(env, durable_flags);
      if (exit_code == 0) return runs;
    }
    ADD_FAILURE() << "kill-loop made no durable progress in " << limit
                  << " incarnations (crash_after=" << crash_after << ")";
    return -1;
  }

  static constexpr const char* kGraphPath = "crash_smoke_graph.bin";
  static constexpr const char* kStreamPath = "crash_smoke_stream.bin";
  size_t stream_size_ = 0;
};

TEST_F(CrashRecoverySmokeTest, UninterruptedDurableRunMatchesPlainBatch) {
  ASSERT_EQ(Run("", "--algorithm=neighborbin --out=crash_smoke_plain.tsv"), 0);
  ASSERT_EQ(Run("", "--algorithm=neighborbin --wal_dir=crash_smoke_wal_ref "
                    "--checkpoint_every=50 --out=crash_smoke_ref.tsv"),
            0);
  const std::string plain = Slurp("crash_smoke_plain.tsv");
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(Slurp("crash_smoke_ref.tsv"), plain)
      << "incremental durable output diverged from the batch writer";
}

TEST_F(CrashRecoverySmokeTest, KillLoopConvergesToUninterruptedBytes) {
  ASSERT_EQ(Run("", "--algorithm=neighborbin --wal_dir=crash_smoke_wal_ref "
                    "--checkpoint_every=50 --out=crash_smoke_ref.tsv "
                    "--metrics_out=crash_smoke_ref_metrics.json"),
            0);
  const std::string ref_tsv = Slurp("crash_smoke_ref.tsv");
  const std::string ref_metrics = Slurp("crash_smoke_ref_metrics.json");
  ASSERT_FALSE(ref_tsv.empty());
  ASSERT_FALSE(ref_metrics.empty());

  // crash_after=73 with checkpoint_every=50 and the default (buffered)
  // sync policy: each incarnation reaches one checkpoint before dying, so
  // the only durable progress is checkpoint-carried — the harshest case
  // for output repositioning.
  const int runs = KillLoop(
      "--algorithm=neighborbin --wal_dir=crash_smoke_wal_kill "
      "--checkpoint_every=50 --out=crash_smoke_kill.tsv "
      "--metrics_out=crash_smoke_kill_metrics.json",
      /*crash_after=*/73, /*min_progress_per_run=*/50);
  ASSERT_GT(runs, 1) << "crash hook never fired: workload too small?";

  EXPECT_EQ(Slurp("crash_smoke_kill.tsv"), ref_tsv)
      << "recovered output stream is not byte-identical";
  EXPECT_EQ(Slurp("crash_smoke_kill_metrics.json"), ref_metrics)
      << "recovered metrics snapshot is not byte-identical";
}

TEST_F(CrashRecoverySmokeTest, SyncedWalCarriesProgressBetweenCheckpoints) {
  ASSERT_EQ(Run("", "--algorithm=unibin --wal_dir=crash_smoke_wal_ref "
                    "--checkpoint_every=200 --out=crash_smoke_ref.tsv"),
            0);
  const std::string ref_tsv = Slurp("crash_smoke_ref.tsv");
  ASSERT_FALSE(ref_tsv.empty());

  // crash_after=37 never reaches checkpoint_every=200, so recovery leans
  // entirely on WAL replay — which only makes progress because
  // --wal_sync=always pushes every record to disk before the decision.
  const int runs = KillLoop(
      "--algorithm=unibin --wal_dir=crash_smoke_wal_kill "
      "--checkpoint_every=200 --wal_sync=always --out=crash_smoke_kill.tsv",
      /*crash_after=*/37, /*min_progress_per_run=*/37);
  ASSERT_GT(runs, 1);

  EXPECT_EQ(Slurp("crash_smoke_kill.tsv"), ref_tsv)
      << "WAL-replayed output stream is not byte-identical";
}

TEST_F(CrashRecoverySmokeTest, PacedKillLoopMatchesPlainRun) {
  // A durable run paced by --live is the same pipeline: it resumes at
  // the WAL's next post and its output equals a plain batch run's.
  ASSERT_EQ(Run("", "--algorithm=neighborbin --out=crash_smoke_plain.tsv"), 0);
  const std::string plain = Slurp("crash_smoke_plain.tsv");
  ASSERT_FALSE(plain.empty());

  const int runs = KillLoop(
      "--algorithm=neighborbin --live --speedup=1e9 "
      "--wal_dir=crash_smoke_wal_kill --checkpoint_every=50 "
      "--out=crash_smoke_kill.tsv",
      /*crash_after=*/73, /*min_progress_per_run=*/50);
  ASSERT_GT(runs, 1) << "crash hook never fired: workload too small?";

  EXPECT_EQ(Slurp("crash_smoke_kill.tsv"), plain)
      << "paced durable output diverged from the batch writer";
}

TEST_F(CrashRecoverySmokeTest, VersionFlagPrintsBuildAndStateFormat) {
  const std::string command = std::string("\"") + FIREHOSE_DIVERSIFY_BIN +
                              "\" --version > crash_smoke_stdout.txt 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  const std::string out = Slurp("crash_smoke_stdout.txt");
  EXPECT_NE(out.find("firehose"), std::string::npos) << out;
  EXPECT_NE(out.find("state format"), std::string::npos) << out;
}

TEST_F(CrashRecoverySmokeTest, ResumingWithDifferentEngineIsAHardError) {
  ASSERT_EQ(Run("", "--algorithm=unibin --wal_dir=crash_smoke_wal_mismatch "
                    "--checkpoint_every=50"),
            0);
  const int exit_code =
      Run("", "--algorithm=cliquebin --wal_dir=crash_smoke_wal_mismatch "
              "--checkpoint_every=50",
          "> crash_smoke_stdout.txt 2>&1");
  EXPECT_NE(exit_code, 0);
  const std::string out = Slurp("crash_smoke_stdout.txt");
  EXPECT_NE(out.find("UniBin"), std::string::npos) << out;
  EXPECT_NE(out.find("CliqueBin"), std::string::npos) << out;
}

}  // namespace
}  // namespace firehose
