// End-to-end serving smoke: drives the REAL firehose_serve and
// firehose_loadgen binaries (paths injected by CMake) over a loopback
// socket. The clean path, run with the debug port on and a 2 MiB main
// stack, must verify byte-identical against the in-process S_* engine,
// and the kill-loop path SIGKILLs the server
// mid-stream — twice, at different points, via FIREHOSE_CRASH_AFTER —
// restarts it over the same data_dir at another --shards each time,
// resends the stream from the start, and requires the recovered
// timelines to be byte-identical (loadgen --verify) with the resent
// prefix deduped, not re-ingested.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/firehose.h"

#ifndef FIREHOSE_SERVE_BIN
#error "FIREHOSE_SERVE_BIN must point at the firehose_serve binary"
#endif
#ifndef FIREHOSE_LOADGEN_BIN
#error "FIREHOSE_LOADGEN_BIN must point at the firehose_loadgen binary"
#endif

namespace firehose {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ServingSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Every file is named after the test, so tests never share state
    // even when they run at the same time.
    const std::string prefix =
        std::string("serving_smoke_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_";
    social_path_ = prefix + "social.bin";
    graph_path_ = prefix + "graph.bin";
    stream_path_ = prefix + "stream.bin";
    port_file_ = prefix + "port";
    pid_file_ = prefix + "pid";
    data_dir_ = prefix + "data";
    serve_log_ = prefix + "serve.log";
    loadgen_log_ = prefix + "loadgen.log";
    bench_path_ = prefix + "bench.json";
    CleanArtifacts();

    SocialGraphOptions social_options;
    social_options.num_authors = 120;
    social_options.num_communities = 5;
    social_options.avg_followees = 12.0;
    social_options.seed = 20260808;
    const FollowGraph social = GenerateSocialGraph(social_options);
    std::vector<AuthorId> authors;
    for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
    const auto similarities = AllPairsSimilarity(social, authors, 0.05);
    const AuthorGraph graph =
        AuthorGraph::FromSimilarities(authors, similarities, 0.7);

    StreamGenOptions stream_options;
    stream_options.posts_per_author = 6.0;
    stream_options.seed = 13;
    const SimHasher hasher;
    const PostStream stream = GenerateStream(graph, hasher, stream_options);
    ASSERT_GT(stream.size(), 400u);
    stream_size_ = stream.size();

    ASSERT_TRUE(SaveFollowGraph(social, social_path_));
    ASSERT_TRUE(SaveAuthorGraph(graph, graph_path_));
    ASSERT_TRUE(SavePostStream(stream, stream_path_));
  }

  void TearDown() override {
    KillServerIfRunning();
    CleanArtifacts();
  }

  void CleanArtifacts() {
    std::filesystem::remove_all(data_dir_);
    for (const std::string& path :
         {social_path_, graph_path_, stream_path_, port_file_, pid_file_,
          serve_log_, loadgen_log_, bench_path_}) {
      std::filesystem::remove(path);
    }
  }

  /// Spawns the server in the background (shell `&`), recording its pid.
  /// `env` is a NAME=value prefix reaching only the server process.
  /// `stack_kb` > 0 runs it under `ulimit -s stack_kb`.
  void StartServer(const std::string& env, const std::string& extra_flags,
                   int stack_kb = 0) {
    std::filesystem::remove(port_file_);
    const std::string limit =
        stack_kb > 0 ? "ulimit -s " + std::to_string(stack_kb) + "; " : "";
    const std::string command =
        limit + env + (env.empty() ? "" : " ") + "\"" + FIREHOSE_SERVE_BIN +
        "\" --graph=" + graph_path_ + " --port=0 --port_file=" + port_file_ +
        " " + extra_flags + " >> " + serve_log_ + " 2>&1 & echo $! > " +
        pid_file_;
    ASSERT_EQ(std::system(command.c_str()), 0);
    // --port_file is written after a successful bind, so its appearance
    // doubles as the readiness signal.
    for (int i = 0; i < 500; ++i) {
      if (std::filesystem::exists(port_file_)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "server never wrote " << port_file_ << ":\n"
           << Slurp(serve_log_);
  }

  /// True while the background server process is alive.
  bool ServerAlive() {
    const std::string probe = "kill -0 $(cat " + pid_file_ + ") 2> /dev/null";
    return std::system(probe.c_str()) == 0;
  }

  void KillServerIfRunning() {
    if (!std::filesystem::exists(pid_file_)) return;
    const std::string kill_cmd =
        "kill -9 $(cat " + pid_file_ + ") 2> /dev/null";
    (void)std::system(kill_cmd.c_str());
  }

  /// Blocks until the server process exits (SIGKILLed itself or was
  /// shut down by the loadgen).
  void AwaitServerExit() {
    for (int i = 0; i < 500; ++i) {
      if (!ServerAlive()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "server did not exit";
  }

  int RunLoadgen(const std::string& extra_flags) {
    const std::string command =
        std::string("\"") + FIREHOSE_LOADGEN_BIN + "\" --port_file=" +
        port_file_ + " --social=" + social_path_ + " --stream=" +
        stream_path_ + " " + extra_flags + " > " + loadgen_log_ + " 2>&1";
    return std::system(command.c_str());
  }

  std::string social_path_;
  std::string graph_path_;
  std::string stream_path_;
  std::string port_file_;
  std::string pid_file_;
  std::string data_dir_;
  std::string serve_log_;
  std::string loadgen_log_;
  std::string bench_path_;
  size_t stream_size_ = 0;
};

TEST_F(ServingSmokeTest, CleanServeVerifiesAgainstInProcessEngine) {
  // --debug_port makes the server build its 6.3 MB flight recorder, and a
  // 2 MiB main stack kills the server if the recorder lands on it.
  StartServer("", "--shards=2 --debug_port=0", /*stack_kb=*/2048);
  const int exit_code = RunLoadgen("--graph=" + graph_path_ +
                                   " --verify --bench_out=" + bench_path_ +
                                   " --shutdown");
  ASSERT_EQ(exit_code, 0) << Slurp(loadgen_log_);
  AwaitServerExit();

  const std::string log = Slurp(loadgen_log_);
  EXPECT_NE(log.find("verify: PASS"), std::string::npos) << log;

  // The bench artifact carries the serving metrics the CI job uploads.
  const std::string bench = Slurp(bench_path_);
  EXPECT_NE(bench.find("serve.posts_sent"), std::string::npos) << bench;
  EXPECT_NE(bench.find("serve.timeline_hash"), std::string::npos) << bench;
  EXPECT_NE(bench.find("serve.verify_ok"), std::string::npos) << bench;
}

TEST_F(ServingSmokeTest, KillLoopRecoversToByteIdenticalTimelines) {
  // Incarnation 1: dies a third of the way into the stream. The loadgen
  // sees the socket drop and fails; --flush_every=50 guarantees durable
  // progress before the kill.
  StartServer("FIREHOSE_CRASH_AFTER=" + std::to_string(stream_size_ / 3),
              "--shards=2 --data_dir=" + data_dir_ + " --wal_sync=always");
  EXPECT_NE(RunLoadgen("--flush_every=50"), 0)
      << "loadgen survived an incarnation that SIGKILLed itself";
  AwaitServerExit();

  // Incarnation 2: recovers onto 3 shards, then dies again — two thirds
  // in, counted across the full resend (duplicates included), so the
  // kill lands at a different stream position than the first.
  StartServer("FIREHOSE_CRASH_AFTER=" + std::to_string(2 * stream_size_ / 3),
              "--shards=3 --data_dir=" + data_dir_ + " --wal_sync=always");
  EXPECT_NE(RunLoadgen("--flush_every=50"), 0);
  AwaitServerExit();

  // Final incarnation: recovers everything durable onto 1 shard, takes
  // the full resend (dedupes the durable prefix), and must verify
  // byte-identical against the in-process engine.
  StartServer("", "--shards=1 --data_dir=" + data_dir_ + " --wal_sync=always");
  const int exit_code =
      RunLoadgen("--graph=" + graph_path_ + " --verify --shutdown");
  ASSERT_EQ(exit_code, 0) << Slurp(loadgen_log_);
  AwaitServerExit();

  const std::string log = Slurp(loadgen_log_);
  EXPECT_NE(log.find("verify: PASS"), std::string::npos) << log;
  // The final connect must have found durable posts from the first two
  // incarnations (printed as "N durable" by the loadgen) and the final
  // replay must have deduped them.
  EXPECT_EQ(log.find(" 0 durable"), std::string::npos)
      << "no durable progress survived the kills:\n"
      << log;
  EXPECT_EQ(log.find(" 0 duplicates"), std::string::npos)
      << "the durable prefix was not deduped on resend:\n"
      << log;
}

TEST_F(ServingSmokeTest, ServeVersionFlagPrintsBuildInfo) {
  const std::string command = std::string("\"") + FIREHOSE_SERVE_BIN +
                              "\" --version > " + serve_log_ + " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  EXPECT_NE(Slurp(serve_log_).find("firehose"), std::string::npos);
}

}  // namespace
}  // namespace firehose
