// Pass-level tests on synthetic file sets: unchecked-error statement
// analysis, IWYU-lite unused includes, the token-aware seam/hygiene
// checks (no false positives from strings or comments — the reason the
// regex lint was replaced), the `firehose-lint: allow(...)` hatch, and
// the driver's per-pass timers and output format.

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"

namespace firehose {
namespace analysis {
namespace {

AnalysisResult RunAnalysis(const std::vector<SourceFile>& files,
                           const std::set<std::string>& checks) {
  AnalysisOptions options;
  options.checks = checks;
  return Analyze(files, options);
}

// A src/dur header declaring one must-check API for the tests below.
const SourceFile kDurApi = {
    "src/dur/api.h",
    "#ifndef FIREHOSE_DUR_API_H_\n"
    "#define FIREHOSE_DUR_API_H_\n"
    "[[nodiscard]] bool Commit(int fd);\n"
    "#endif  // FIREHOSE_DUR_API_H_\n"};

// --- unchecked-error ---------------------------------------------------------

TEST(UncheckedErrorTest, FlagsDiscardedStatementCall) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi, {"src/dur/use.cc", "void F() {\n  Commit(1);\n}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "unchecked-error");
  EXPECT_EQ(result.findings[0].path, "src/dur/use.cc");
  EXPECT_EQ(result.findings[0].line, 2);
  EXPECT_NE(result.findings[0].message.find("Commit"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("src/dur/api.h"),
            std::string::npos);
}

TEST(UncheckedErrorTest, FlagsDiscardedChainedCall) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi,
       {"src/dur/use.cc", "void F(S* s) {\n  s->session.Commit(1);\n}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
}

TEST(UncheckedErrorTest, ConsumedResultsAreClean) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi,
       {"src/dur/use.cc",
        "bool F() {\n"
        "  if (!Commit(1)) return false;\n"
        "  bool ok = Commit(2);\n"
        "  return ok && Commit(3);\n"
        "}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(UncheckedErrorTest, VoidCastIsExplicitDiscard) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi, {"src/dur/use.cc", "void F() {\n  (void)Commit(1);\n}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(UncheckedErrorTest, TernaryArmIsConsumed) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi,
       {"src/dur/use.cc",
        "int F(bool ok) {\n  int r = ok ? 0 : Commit(1);\n  return r;\n}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(UncheckedErrorTest, CaseLabelBodyIsDiscarded) {
  const AnalysisResult result = RunAnalysis(
      {kDurApi,
       {"src/dur/use.cc",
        "void F(int m) {\n"
        "  switch (m) {\n"
        "    case 1: Commit(1); break;\n"
        "  }\n"
        "}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 3);
}

TEST(UncheckedErrorTest, TestsDirectoryIsOutOfScope) {
  // Only src/ and tools/ are held to the discipline; tests assert what
  // they need to and gtest macros consume most results anyway.
  const AnalysisResult result = RunAnalysis(
      {kDurApi, {"tests/use_test.cc", "void F() {\n  Commit(1);\n}\n"}},
      {"unchecked-error"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

// --- unused-include ----------------------------------------------------------

const SourceFile kHelper = {
    "src/util/helper.h",
    "#ifndef FIREHOSE_UTIL_HELPER_H_\n"
    "#define FIREHOSE_UTIL_HELPER_H_\n"
    "int Frobnicate(int x);\n"
    "#endif  // FIREHOSE_UTIL_HELPER_H_\n"};

TEST(UnusedIncludeTest, FlagsIncludeWithNoReferencedName) {
  const AnalysisResult result = RunAnalysis(
      {kHelper,
       {"src/text/user.cc",
        "#include \"src/util/helper.h\"\nint Other() { return 1; }\n"}},
      {"unused-include"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "unused-include");
  EXPECT_EQ(result.findings[0].path, "src/text/user.cc");
  EXPECT_EQ(result.findings[0].line, 1);
}

TEST(UnusedIncludeTest, ReferencedIncludeIsClean) {
  const AnalysisResult result = RunAnalysis(
      {kHelper,
       {"src/text/user.cc",
        "#include \"src/util/helper.h\"\n"
        "int Twice(int x) { return Frobnicate(x) * 2; }\n"}},
      {"unused-include"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(UnusedIncludeTest, PrimaryHeaderIsAlwaysKept) {
  const AnalysisResult result = RunAnalysis(
      {{"src/text/user.h",
        "#ifndef U\n#define U\nint Unrelated();\n#endif\n"},
       {"src/text/user.cc",
        "#include \"src/text/user.h\"\nint Other() { return 1; }\n"}},
      {"unused-include"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

// --- token-aware hygiene: strings and comments cannot trip checks ------------

TEST(BannedNondeterminismTest, FlagsRealCallsOnly) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/r.cc",
        "// rand() in a comment\n"
        "const char* kDoc = \"call rand() for chaos\";\n"
        "int F() { return rand(); }\n"
        "std::random_device MakeSeed();\n"}},
      {"banned-nondeterminism"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].line, 3);  // the real rand() call
  EXPECT_EQ(result.findings[1].line, 4);  // std::random_device
}

TEST(BannedNondeterminismTest, UtilRandomIsExempt) {
  const AnalysisResult result = RunAnalysis(
      {{"src/util/random.cc", "int F() { return rand(); }\n"}},
      {"banned-nondeterminism"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(DurSeamTest, FlagsFileMutationOutsideIoAndDur) {
  const std::string body =
      "// fopen(path) is fine here\n"
      "const char* kMsg = \"fopen(\";\n"
      "void F(const char* p) { std::fopen(p, \"w\"); }\n";
  const AnalysisResult bad =
      RunAnalysis({{"src/core/x.cc", body}}, {"dur-seam"});
  ASSERT_TRUE(bad.ok) << bad.error;
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings[0].check, "dur-seam");
  EXPECT_EQ(bad.findings[0].line, 3);

  // The same bytes are sanctioned inside the two file-owning modules,
  // and in the logger's stderr sink (a terminal stream, not durable
  // state).
  EXPECT_TRUE(RunAnalysis({{"src/io/x.cc", body}}, {"dur-seam"}).findings.empty());
  EXPECT_TRUE(RunAnalysis({{"src/dur/x.cc", body}}, {"dur-seam"}).findings.empty());
  EXPECT_TRUE(
      RunAnalysis({{"src/obs/log.cc", body}}, {"dur-seam"}).findings.empty());
}

TEST(ObsSeamTest, FlagsTimeOutsideClockSeam) {
  const std::string body = "uint64_t Now() { return std::chrono::foo(); }\n";
  const AnalysisResult bad =
      RunAnalysis({{"src/obs/metrics_extra.cc", body}}, {"obs-seam"});
  ASSERT_TRUE(bad.ok) << bad.error;
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings[0].check, "obs-seam");
  // obs/clock.* is the sanctioned wrapper; other modules are out of scope.
  EXPECT_TRUE(RunAnalysis({{"src/obs/clock.cc", body}}, {"obs-seam"}).findings.empty());
  EXPECT_TRUE(RunAnalysis({{"src/core/x.cc", body}}, {"obs-seam"}).findings.empty());
}

TEST(ObsSeamTest, LogSinkOwnsTheStderrSeam) {
  // The default log sink is the one sanctioned fwrite in src/obs; any
  // other obs file doing stdio is still a violation.
  const std::string body =
      "void Sink(const char* p, size_t n) { std::fwrite(p, 1, n, stderr); }\n";
  EXPECT_TRUE(
      RunAnalysis({{"src/obs/log.cc", body}}, {"obs-seam"}).findings.empty());
  const AnalysisResult bad =
      RunAnalysis({{"src/obs/metrics_extra.cc", body}}, {"obs-seam"});
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings[0].check, "obs-seam");
}

TEST(IncludeGuardTest, EnforcesIfndefGuards) {
  const AnalysisResult pragma = RunAnalysis(
      {{"src/util/g.h", "#pragma once\nint F();\n"}}, {"include-guard"});
  ASSERT_EQ(pragma.findings.size(), 1u);
  EXPECT_NE(pragma.findings[0].message.find("pragma"), std::string::npos);

  const AnalysisResult missing =
      RunAnalysis({{"src/util/g.h", "int F();\n"}}, {"include-guard"});
  ASSERT_EQ(missing.findings.size(), 1u);

  const AnalysisResult good = RunAnalysis(
      {{"src/util/g.h",
        "#ifndef FIREHOSE_UTIL_G_H_\n#define FIREHOSE_UTIL_G_H_\n"
        "int F();\n#endif  // FIREHOSE_UTIL_G_H_\n"}},
      {"include-guard"});
  EXPECT_TRUE(good.findings.empty());
}

TEST(RawNewDeleteTest, FlagsRawButNotDeletedFunctions) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/n.cc",
        "struct S {\n"
        "  S(const S&) = delete;\n"
        "};\n"
        "int* Make() { return new int(3); }\n"}},
      {"raw-new-delete"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 4);
  EXPECT_NE(result.findings[0].message.find("new"), std::string::npos);
}

TEST(UnorderedIterationTest, FlagsOutputFeedingLoop) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/u.cc",
        "std::unordered_map<int, int> counts_;\n"
        "void Dump(std::vector<int>* out) {\n"
        "  for (const auto& kv : counts_) {\n"
        "    out->push_back(kv.first);\n"
        "  }\n"
        "}\n"}},
      {"unordered-iteration"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "unordered-iteration");
  EXPECT_EQ(result.findings[0].line, 3);
}

TEST(UnorderedIterationTest, NonOutputLoopIsClean) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/u.cc",
        "std::unordered_map<int, int> counts_;\n"
        "int Sum() {\n"
        "  int total = 0;\n"
        "  for (const auto& kv : counts_) total += kv.second;\n"
        "  return total;\n"
        "}\n"}},
      {"unordered-iteration"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

// --- suppressions ------------------------------------------------------------

TEST(SuppressionTest, TrailingAllowCommentSuppresses) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/n.cc",
        "int* Make() { return new int; }  "
        "// firehose-lint: allow(raw-new-delete)\n"}},
      {"raw-new-delete"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(SuppressionTest, PrecedingLineAllowCommentSuppresses) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/n.cc",
        "// firehose-lint: allow(raw-new-delete)\n"
        "int* Make() { return new int; }\n"}},
      {"raw-new-delete"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(SuppressionTest, WrongCheckNameDoesNotSuppress) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/n.cc",
        "// firehose-lint: allow(dur-seam)\n"
        "int* Make() { return new int; }\n"}},
      {"raw-new-delete"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.findings.size(), 1u);
}

// --- driver plumbing ---------------------------------------------------------

TEST(AnalyzeTest, UnknownCheckNameIsConfigurationError) {
  const AnalysisResult result =
      RunAnalysis({{"src/core/x.cc", "int a;\n"}}, {"no-such-check"});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no-such-check"), std::string::npos);
}

TEST(AnalyzeTest, FindingsAreSortedByPathLineCheck) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/b.cc", "int* A() { return new int; }\n"},
       {"src/core/a.cc",
        "int* B() { return new int; }\nint* C() { return new int; }\n"}},
      {"raw-new-delete"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 3u);
  EXPECT_EQ(result.findings[0].path, "src/core/a.cc");
  EXPECT_EQ(result.findings[0].line, 1);
  EXPECT_EQ(result.findings[1].path, "src/core/a.cc");
  EXPECT_EQ(result.findings[1].line, 2);
  EXPECT_EQ(result.findings[2].path, "src/core/b.cc");
}

TEST(AnalyzeTest, StatsTimersCoverEveryEnabledPass) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/a.cc", "int* Make() {\n  return new int;\n}\n"},
       {"src/core/b.cc", "void Idle() {}\n"}},
      {"raw-new-delete", "include-guard"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.pass_ms.size(), 2u);
  for (const auto& [name, ms] : result.pass_ms) {
    EXPECT_TRUE(name == "raw-new-delete" || name == "include-guard") << name;
    EXPECT_GE(ms, 0.0);
  }
}

TEST(AnalyzeTest, AllChecksHaveUniqueNamesAndDescriptions) {
  std::set<std::string> names;
  for (const CheckInfo& check : AllChecks()) {
    EXPECT_TRUE(names.insert(check.name).second) << check.name;
    EXPECT_FALSE(check.description.empty()) << check.name;
  }
  // The behavior-compatible names the old firehose_lint shipped with.
  for (const char* legacy :
       {"banned-nondeterminism", "unordered-iteration", "include-guard",
        "raw-new-delete", "obs-seam", "dur-seam"}) {
    EXPECT_EQ(names.count(legacy), 1u) << legacy;
  }
}

TEST(FormatFindingTest, MatchesLegacyLintFormat) {
  const Finding finding = {"src/core/a.cc", 10, "raw-new-delete",
                           "raw `new`; use containers", ""};
  EXPECT_EQ(FormatFinding(finding),
            "src/core/a.cc:10: [raw-new-delete] raw `new`; use containers");
}

}  // namespace
}  // namespace analysis
}  // namespace firehose
