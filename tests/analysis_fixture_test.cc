// Runs the analyzer over the deliberately-broken fixture files under
// tests/analysis/fixtures/ — the proof that each semantic pass fires on
// its seeded hazard and stays silent on the clean twin. Fixtures are
// read from disk (FIREHOSE_ANALYSIS_FIXTURE_DIR, injected by CMake) and
// presented with synthetic src/ paths so module- and allowlist-gated
// passes see them as production code. The driver itself skips
// directories named `fixtures`, so these files never taint a real run.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"

namespace firehose {
namespace analysis {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(FIREHOSE_ANALYSIS_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Loads a fixture from disk and presents it to Analyze under a
// synthetic repo path, running only `check`.
AnalysisResult RunFixture(const std::string& fixture,
                          const std::string& presented_path,
                          const std::string& check) {
  AnalysisOptions options;
  options.checks = {check};
  return Analyze({{presented_path, ReadFixture(fixture)}}, options);
}

TEST(FixtureTest, ViewInvalidationFiresOnStaleSpanRead) {
  const AnalysisResult result =
      RunFixture("view_invalidation_bad.cc", "src/core/view_fixture.cc",
                 "view-invalidation");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "view-invalidation");
  EXPECT_NE(result.findings[0].message.find("'segments'"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("bin.Push()"), std::string::npos);
}

TEST(FixtureTest, ViewInvalidationSilentAfterReacquire) {
  const AnalysisResult result =
      RunFixture("view_invalidation_clean.cc", "src/core/view_fixture.cc",
                 "view-invalidation");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, LockDisciplineFiresOnUnlockedAccessAndCall) {
  const AnalysisResult result = RunFixture(
      "lock_discipline_bad.cc", "src/obs/lock_fixture.cc", "lock-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 2u);
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.check, "lock-discipline");
    EXPECT_NE(finding.message.find("mu_"), std::string::npos);
  }
}

TEST(FixtureTest, LockDisciplineSilentUnderGuards) {
  const AnalysisResult result = RunFixture(
      "lock_discipline_clean.cc", "src/obs/lock_fixture.cc",
      "lock-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, AtomicOrderingFiresOnDefaultsAndOffSeamRelaxed) {
  const AnalysisResult result = RunFixture(
      "atomic_ordering_bad.cc", "src/eval/atomic_fixture.cc",
      "atomic-ordering");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 3u);
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.check, "atomic-ordering");
  }
}

TEST(FixtureTest, AtomicOrderingSilentWithExplicitOrders) {
  const AnalysisResult result = RunFixture(
      "atomic_ordering_clean.cc", "src/eval/atomic_fixture.cc",
      "atomic-ordering");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, BlockingFiresOneCallDeepFromOffer) {
  const AnalysisResult result = RunFixture(
      "blocking_bad.cc", "src/core/blocking_fixture.cc",
      "blocking-in-hot-path");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("fprintf"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("Offer -> LogDecision"),
            std::string::npos);
}

TEST(FixtureTest, BlockingSilentWhenIoIsNotReachableFromOffer) {
  const AnalysisResult result = RunFixture(
      "blocking_clean.cc", "src/core/blocking_fixture.cc",
      "blocking-in-hot-path");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, ThreadConfinementFiresOnCrossRoleTouches) {
  const AnalysisResult result = RunFixture(
      "thread_confinement_bad.cc", "src/net/confinement_fixture.cc",
      "thread-confinement");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 3u);
  std::set<std::string> tokens;
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.check, "thread-confinement");
    tokens.insert(finding.token);
  }
  EXPECT_EQ(tokens, (std::set<std::string>{"timeline_@dispatcher",
                                           "queue_.TryPush@shard_worker",
                                           "queue_.TryPop@dispatcher"}));
}

TEST(FixtureTest, ThreadConfinementCatchesCrossThreadPush) {
  // The acceptance mutation: a worker-side TryPush on a producer-only
  // queue must be one of the findings, with the worker chain attached.
  const AnalysisResult result = RunFixture(
      "thread_confinement_bad.cc", "src/net/confinement_fixture.cc",
      "thread-confinement");
  ASSERT_TRUE(result.ok) << result.error;
  bool found = false;
  for (const Finding& finding : result.findings) {
    if (finding.token == "queue_.TryPush@shard_worker") {
      found = true;
      EXPECT_NE(finding.message.find("FIREHOSE_PRODUCER_ONLY(dispatcher)"),
                std::string::npos);
      EXPECT_NE(finding.message.find("Worker::Loop -> Worker::Drain"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FixtureTest, ThreadConfinementDedupesToShortestChain) {
  // timeline_ is touched from NearTouch (2 hops) and Far (3 hops via
  // Mid); the (check, path, token) collapse must keep only the shorter
  // chain's finding.
  const AnalysisResult result = RunFixture(
      "thread_confinement_bad.cc", "src/net/confinement_fixture.cc",
      "thread-confinement");
  ASSERT_TRUE(result.ok) << result.error;
  int timeline_findings = 0;
  for (const Finding& finding : result.findings) {
    if (finding.token != "timeline_@dispatcher") continue;
    ++timeline_findings;
    EXPECT_NE(finding.message.find("Worker::Dispatch -> Worker::NearTouch"),
              std::string::npos);
    EXPECT_EQ(finding.message.find("Far"), std::string::npos)
        << "longer chain survived the dedupe: " << finding.message;
  }
  EXPECT_EQ(timeline_findings, 1);
}

TEST(FixtureTest, ThreadConfinementSilentOnCleanRoles) {
  const AnalysisResult result = RunFixture(
      "thread_confinement_clean.cc", "src/net/confinement_fixture.cc",
      "thread-confinement");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, UntrustedInputFiresDirectAndInterprocedural) {
  const AnalysisResult result = RunFixture(
      "untrusted_input_bad.cc", "src/net/taint_fixture.cc",
      "untrusted-input");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_NE(result.findings[0].message.find("'resize' argument"),
            std::string::npos);
  EXPECT_NE(result.findings[1].message.find("arg 1 of 'Apply'"),
            std::string::npos);
  for (const Finding& finding : result.findings) {
    EXPECT_NE(finding.message.find("from ReadWire"), std::string::npos);
  }
}

TEST(FixtureTest, UntrustedInputSilentAfterBoundChecks) {
  const AnalysisResult result = RunFixture(
      "untrusted_input_clean.cc", "src/net/taint_fixture.cc",
      "untrusted-input");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, OrderingFiresOnBareWaitOutsideLoop) {
  const AnalysisResult result = RunFixture(
      "condvar_wait_bad.cc", "src/runtime/wait_fixture.cc",
      "ordering-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("'cv.wait(lock)'"),
            std::string::npos);
  EXPECT_NE(result.findings[0].message.find("Gate::Await"),
            std::string::npos);
}

TEST(FixtureTest, OrderingSilentOnPredicateWaits) {
  const AnalysisResult result = RunFixture(
      "condvar_wait_clean.cc", "src/runtime/wait_fixture.cc",
      "ordering-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, OrderingFiresOnDecideBeforeAppend) {
  const AnalysisResult result = RunFixture(
      "wal_order_bad.cc", "src/dur/order_fixture.cc", "ordering-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("'Offer' precedes"),
            std::string::npos);
  EXPECT_NE(result.findings[0].message.find("wal_->Append"),
            std::string::npos);
}

TEST(FixtureTest, OrderingSilentOnAppendBeforeDecide) {
  const AnalysisResult result = RunFixture(
      "wal_order_clean.cc", "src/dur/order_fixture.cc",
      "ordering-discipline");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(FixtureTest, SemanticFindingPrintsItsExactLine) {
  // Pins the line and message of one semantic finding exactly as the
  // driver prints it.
  const AnalysisResult result =
      RunFixture("view_invalidation_bad.cc", "src/core/view_fixture.cc",
                 "view-invalidation");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(FormatFinding(result.findings[0]),
            "src/core/view_fixture.cc:21: [view-invalidation] 'segments' "
            "(PostBin view) is read after 'bin.Push()' on line 18 "
            "invalidated it; re-acquire with 'bin.Segments(...)' before "
            "reading");
}

}  // namespace
}  // namespace analysis
}  // namespace firehose
