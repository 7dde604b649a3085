#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/clock.h"

namespace firehose {
namespace obs {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(FlightRecorderTest, RecordsAndDumpsCompleteSpans) {
  ManualClock clock(1000);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  recorder->RecordComplete(0, "decide", "pipeline", 1000, 4000);
  recorder->RecordComplete(1, "release", "live", 2000, 2500);
  EXPECT_EQ(recorder->TotalRecorded(), 2u);

  const std::string json = recorder->DumpJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"release\""), std::string::npos);
  // Timestamps rebase to the earliest retained event, in microseconds:
  // decide starts at 0us (dur 3us), release at 1us (dur 0us -> rounds
  // into the span arithmetic at microsecond granularity).
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(FlightRecorderTest, InstantEventsUseInstantPhase) {
  ManualClock clock(5000);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  recorder->RecordInstant(0, "trip", "watchdog");
  const std::string json = recorder->DumpJson();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trip\""), std::string::npos);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsNewest) {
  ManualClock clock(0);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  const int total = FlightRecorder::kSlotsPerThread + 100;
  for (int i = 0; i < total; ++i) {
    const uint64_t t = static_cast<uint64_t>(i) * 1000;
    recorder->RecordComplete(0, i % 2 == 0 ? "even" : "odd", "wrap", t,
                             t + 10);
  }
  EXPECT_EQ(recorder->TotalRecorded(), static_cast<uint64_t>(total));
  const std::string json = recorder->DumpJson();
  // Only the ring capacity is retained.
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"wrap\""),
            static_cast<size_t>(FlightRecorder::kSlotsPerThread));
  // The earliest retained events are the ones just past the overwrite
  // point, so after rebasing the first dumped timestamp is 0.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
}

TEST(FlightRecorderTest, WindowKeepsOnlyRecentEvents) {
  ManualClock clock(0);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  recorder->RecordComplete(0, "old", "w", 1'000'000'000, 1'000'001'000);
  recorder->RecordComplete(0, "recent", "w", 9'000'000'000, 9'000'001'000);
  recorder->RecordComplete(0, "newest", "w", 10'000'000'000,
                           10'000'001'000);
  // 2s window anchored at the newest end: "old" (9s earlier) drops out.
  const std::string json = recorder->DumpJson(2'000'000'000);
  EXPECT_EQ(json.find("\"name\":\"old\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"recent\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"newest\""), std::string::npos);
}

TEST(FlightRecorderTest, EventsAboveMaxThreadsAreDropped) {
  ManualClock clock(0);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  recorder->RecordComplete(FlightRecorder::kMaxThreads, "dropped", "x", 0, 1);
  EXPECT_EQ(recorder->TotalRecorded(), 0u);
  EXPECT_EQ(recorder->DumpJson().find("dropped"), std::string::npos);
}

TEST(FlightRecorderTest, ScopeRecordsOneCompleteSpanOnItsTid) {
  ManualClock clock(1000);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  {
    FlightScope scope(recorder.get(), 5, "offer", "serve");
    clock.AdvanceNanos(3000);
  }
  {
    // A scope without a recorder records nothing.
    FlightScope scope(nullptr, 5, "unseen", "serve");
    clock.AdvanceNanos(3000);
  }
  EXPECT_EQ(recorder->TotalRecorded(), 1u);
  const std::string json = recorder->DumpJson();
  EXPECT_NE(json.find("{\"name\":\"offer\",\"cat\":\"serve\",\"ph\":\"X\","
                      "\"ts\":0,\"dur\":3,\"pid\":1,\"tid\":5}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("unseen"), std::string::npos);
}

TEST(FlightRecorderTest, DumpIsWellFormedWhileWritersKeepRecording) {
  // Real clock: writers race the dumper.
  const auto recorder = std::make_unique<FlightRecorder>();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (uint32_t tid = 0; tid < 4; ++tid) {
    writers.emplace_back([recorder = recorder.get(), &stop, tid] {
      uint64_t t = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        recorder->RecordComplete(tid, "spin", "stress", t, t + 5);
        t += 10;
      }
    });
  }
  // Make sure the writers are actually running before racing them.
  while (recorder->TotalRecorded() < 10000) {
  }
  for (int i = 0; i < 50; ++i) {
    const std::string json = recorder->DumpJson();
    // Structural sanity under concurrency: balanced object braces, the
    // trailer present, no torn half-written names.
    ASSERT_NE(json.find("\"traceEvents\":["), std::string::npos);
    ASSERT_EQ(json.substr(json.size() - 3), "]}\n");
    ASSERT_EQ(CountOccurrences(json, "{\"name\""),
              CountOccurrences(json, "\"ph\""));
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GT(recorder->TotalRecorded(), 0u);
}

TEST(FlightRecorderTest, DumpToFdWritesParsableTrace) {
  ManualClock clock(0);
  const auto recorder = std::make_unique<FlightRecorder>(&clock);
  recorder->RecordComplete(2, "offer", "shard", 5000, 8000);
  const std::string path = ::testing::TempDir() + "flight_fd_dump.json";
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  recorder->DumpToFd(fileno(file));
  std::fclose(file);
  const std::string dump = Slurp(path);
  EXPECT_NE(dump.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"offer\""), std::string::npos);
  EXPECT_NE(dump.find("\"tid\":2"), std::string::npos);
  EXPECT_EQ(dump.substr(dump.size() - 3), "]}\n");
  std::remove(path.c_str());
}

/// Forks, crashes the child with `sig` after installing the crash
/// handler, and returns the dump the handler left behind.
std::string CrashAndCollect(int sig, const std::string& path) {
  std::remove(path.c_str());
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: record some history, install the handler, die. The
    // recorder is static, off the stack, and the child allocates nothing
    // after fork.
    static FlightRecorder recorder;
    SetGlobalFlightRecorder(&recorder);
    recorder.RecordComplete(0, "decide", "pipeline", 100, 200);
    recorder.RecordComplete(1, "release", "live", 150, 160);
    InstallCrashDumpHandler(path.c_str());
    ::raise(sig);
    _exit(0);  // unreachable
  }
  int status = 0;
  waitpid(pid, &status, 0);
  // The handler re-raises with default disposition, so the child dies
  // of the original signal, not exit(0).
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), sig);
  return Slurp(path);
}

TEST(CrashDumpTest, SigabrtLeavesWellFormedTraceFile) {
  const std::string path = ::testing::TempDir() + "flight_crash_abrt.json";
  const std::string dump = CrashAndCollect(SIGABRT, path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"release\""), std::string::npos);
  EXPECT_EQ(dump.substr(dump.size() - 3), "]}\n");
  std::remove(path.c_str());
}

TEST(CrashDumpTest, SigsegvLeavesWellFormedTraceFile) {
  const std::string path = ::testing::TempDir() + "flight_crash_segv.json";
  const std::string dump = CrashAndCollect(SIGSEGV, path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_EQ(dump.substr(dump.size() - 3), "]}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace firehose
