// Tests for the semantic model (function/type/annotation extraction
// over the include graph) and for the four sema passes, driven on
// synthetic in-memory file sets through the regular Analyze() entry
// point — firing AND clean variants for each pass.

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/sema/functions.h"

namespace firehose {
namespace analysis {
namespace {

using sema::BuildSemaModel;
using sema::FunctionDef;
using sema::SemaModel;
using sema::TypeInfo;

AnalysisResult RunAnalysis(const std::vector<SourceFile>& files,
                           const std::set<std::string>& checks) {
  AnalysisOptions options;
  options.checks = checks;
  return Analyze(files, options);
}

const FunctionDef* FindFunction(const SemaModel& model,
                                const std::string& name) {
  auto it = model.functions_by_name.find(name);
  if (it == model.functions_by_name.end() || it->second.empty()) {
    return nullptr;
  }
  const auto& [file, index] = it->second.front();
  return &model.files[file].functions[index];
}

// --- BuildSemaModel ----------------------------------------------------------

TEST(SemaModelTest, ExtractsFreeFunctionsAndTheirCalls) {
  const IncludeGraph graph = BuildIncludeGraph(
      {{"src/core/x.cc",
        "int Helper(int v) { return v + 1; }\n"
        "int Decide(int v) {\n"
        "  if (v < 0) return 0;\n"
        "  return Helper(v) * 2;\n"
        "}\n"}});
  const SemaModel model = BuildSemaModel(graph);
  const FunctionDef* decide = FindFunction(model, "Decide");
  ASSERT_NE(decide, nullptr);
  EXPECT_TRUE(decide->class_name.empty());
  EXPECT_EQ(decide->calls.count("Helper"), 1u);
  // Control keywords are not calls.
  EXPECT_EQ(decide->calls.count("if"), 0u);
  EXPECT_EQ(decide->calls.count("return"), 0u);
  ASSERT_NE(FindFunction(model, "Helper"), nullptr);
}

TEST(SemaModelTest, MergesMethodConstnessAcrossHeaderAndSource) {
  const IncludeGraph graph = BuildIncludeGraph(
      {{"src/stream/ring.h",
        "class Ring {\n"
        " public:\n"
        "  size_t size() const;\n"
        "  void Push(int v);\n"
        "};\n"},
       {"src/stream/ring.cc",
        "#include \"src/stream/ring.h\"\n"
        "size_t Ring::size() const { return n_; }\n"
        "void Ring::Push(int v) { ++n_; }\n"}});
  const SemaModel model = BuildSemaModel(graph);
  const TypeInfo* ring = model.FindType("Ring");
  ASSERT_NE(ring, nullptr);
  ASSERT_EQ(ring->method_is_const.count("size"), 1u);
  EXPECT_TRUE(ring->method_is_const.at("size"));
  ASSERT_EQ(ring->method_is_const.count("Push"), 1u);
  EXPECT_FALSE(ring->method_is_const.at("Push"));
}

TEST(SemaModelTest, ReadsGuardedByAndRequiresAnnotations) {
  const IncludeGraph graph = BuildIncludeGraph(
      {{"src/obs/log.h",
        "class Log {\n"
        "  void AppendLocked(int v) FIREHOSE_REQUIRES(mu_);\n"
        "  std::mutex mu_;\n"
        "  int total_ FIREHOSE_GUARDED_BY(mu_) = 0;\n"
        "};\n"}});
  const SemaModel model = BuildSemaModel(graph);
  const TypeInfo* log = model.FindType("Log");
  ASSERT_NE(log, nullptr);
  ASSERT_EQ(log->guarded_members.count("total_"), 1u);
  EXPECT_EQ(log->guarded_members.at("total_"), "mu_");
  ASSERT_EQ(log->method_requires.count("AppendLocked"), 1u);
  EXPECT_EQ(log->method_requires.at("AppendLocked"),
            (std::vector<std::string>{"mu_"}));
}

TEST(SemaModelTest, IncludeClosureIsTransitiveAndReflexive) {
  const IncludeGraph graph = BuildIncludeGraph(
      {{"src/util/c.h", "inline int C() { return 3; }\n"},
       {"src/util/b.h", "#include \"src/util/c.h\"\n"},
       {"src/util/a.cc", "#include \"src/util/b.h\"\n"}});
  const SemaModel model = BuildSemaModel(graph);
  const int a = graph.Find("src/util/a.cc");
  ASSERT_GE(a, 0);
  const std::set<int>& closure = model.reachable_includes[a];
  EXPECT_EQ(closure.count(a), 1u);
  EXPECT_EQ(closure.count(graph.Find("src/util/b.h")), 1u);
  EXPECT_EQ(closure.count(graph.Find("src/util/c.h")), 1u);
}

// --- view-invalidation -------------------------------------------------------

TEST(ViewInvalidationTest, FlagsReadAfterMutatingCall) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/v.cc",
        "int F(PostBin& bin, const Post& post) {\n"
        "  PostBin::LaneSpan segments[2];\n"
        "  size_t n = bin.Segments(segments);\n"
        "  bin.Push(post);\n"
        "  return segments[0].size + n;\n"
        "}\n"}},
      {"view-invalidation"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "view-invalidation");
  EXPECT_EQ(result.findings[0].line, 5);
  EXPECT_NE(result.findings[0].message.find("bin.Push()"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("re-acquire"), std::string::npos);
}

TEST(ViewInvalidationTest, ReacquireRevalidates) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/v.cc",
        "int F(PostBin& bin, const Post& post) {\n"
        "  PostBin::LaneSpan segments[2];\n"
        "  size_t n = bin.Segments(segments);\n"
        "  bin.Push(post);\n"
        "  n = bin.Segments(segments);\n"
        "  return segments[0].size + n;\n"
        "}\n"}},
      {"view-invalidation"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(ViewInvalidationTest, InvalidOnAnyPathWinsAtTheMerge) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/v.cc",
        "int F(PostBin& bin, const Post& post, bool flush) {\n"
        "  PostBin::LaneSpan segments[2];\n"
        "  size_t n = bin.Segments(segments);\n"
        "  if (flush) { bin.EvictOlderThan(10); }\n"
        "  return segments[0].size + n;\n"
        "}\n"}},
      {"view-invalidation"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("bin.EvictOlderThan()"),
            std::string::npos);
}

TEST(ViewInvalidationTest, MutationOfADifferentBinIsHarmless) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/v.cc",
        "int F(PostBin& bin, PostBin& other, const Post& post) {\n"
        "  PostBin::LaneSpan segments[2];\n"
        "  size_t n = bin.Segments(segments);\n"
        "  other.Push(post);\n"
        "  return segments[0].size + n;\n"
        "}\n"}},
      {"view-invalidation"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

// --- lock-discipline ---------------------------------------------------------

const char kLockedClassHeader[] =
    "class EventLog {\n"
    " public:\n"
    "  void Add(int v);\n"
    "  void Reset();\n"
    " private:\n"
    "  void AppendLocked(int v) FIREHOSE_REQUIRES(mu_) { total_ += v; }\n"
    "  std::mutex mu_;\n"
    "  int total_ FIREHOSE_GUARDED_BY(mu_) = 0;\n"
    "};\n";

TEST(LockDisciplineTest, FlagsUnlockedAccessAndCall) {
  const AnalysisResult result = RunAnalysis(
      {{"src/obs/log.h", kLockedClassHeader},
       {"src/obs/log.cc",
        "#include \"src/obs/log.h\"\n"
        "void EventLog::Add(int v) {\n"
        "  total_ += v;\n"
        "  AppendLocked(v);\n"
        "}\n"}},
      {"lock-discipline"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_NE(result.findings[0].message.find("FIREHOSE_GUARDED_BY(mu_)"),
            std::string::npos);
  EXPECT_NE(result.findings[1].message.find("FIREHOSE_REQUIRES(mu_)"),
            std::string::npos);
}

TEST(LockDisciplineTest, LockGuardScopeSatisfiesBoth) {
  const AnalysisResult result = RunAnalysis(
      {{"src/obs/log.h", kLockedClassHeader},
       {"src/obs/log.cc",
        "#include \"src/obs/log.h\"\n"
        "void EventLog::Add(int v) {\n"
        "  const std::lock_guard<std::mutex> lock(mu_);\n"
        "  total_ += v;\n"
        "  AppendLocked(v);\n"
        "}\n"}},
      {"lock-discipline"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(LockDisciplineTest, GuardScopeEndsAtTheClosingBrace) {
  const AnalysisResult result = RunAnalysis(
      {{"src/obs/log.h", kLockedClassHeader},
       {"src/obs/log.cc",
        "#include \"src/obs/log.h\"\n"
        "void EventLog::Add(int v) {\n"
        "  { const std::lock_guard<std::mutex> lock(mu_); total_ += v; }\n"
        "  total_ += v;\n"
        "}\n"}},
      {"lock-discipline"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 4);
}

TEST(LockDisciplineTest, RequiresMethodHoldsTheCapabilityAtEntry) {
  // AppendLocked touches total_ under FIREHOSE_REQUIRES(mu_): clean.
  const AnalysisResult result = RunAnalysis(
      {{"src/obs/log.h", kLockedClassHeader}}, {"lock-discipline"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(LockDisciplineTest, ManualUnlockDropsTheCapability) {
  const AnalysisResult result = RunAnalysis(
      {{"src/obs/log.h", kLockedClassHeader},
       {"src/obs/log.cc",
        "#include \"src/obs/log.h\"\n"
        "void EventLog::Add(int v) {\n"
        "  std::unique_lock<std::mutex> lock(mu_);\n"
        "  total_ += v;\n"
        "  lock.unlock();\n"
        "  total_ += v;\n"
        "}\n"}},
      {"lock-discipline"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 6);
}

// --- atomic-ordering ---------------------------------------------------------

TEST(AtomicOrderingTest, FlagsDefaultsAndOffSeamRelaxed) {
  const AnalysisResult result = RunAnalysis(
      {{"src/eval/count.cc",
        "std::atomic<int> hits{0};\n"
        "void Record() {\n"
        "  hits.fetch_add(1);\n"
        "  ++hits;\n"
        "  int v = hits.load(std::memory_order_relaxed);\n"
        "}\n"}},
      {"atomic-ordering"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 3u);
  EXPECT_NE(result.findings[0].message.find("seq_cst-default"),
            std::string::npos);
  EXPECT_NE(result.findings[2].message.find("memory_order_relaxed"),
            std::string::npos);
}

TEST(AtomicOrderingTest, ExplicitNonRelaxedOrdersAreClean) {
  const AnalysisResult result = RunAnalysis(
      {{"src/eval/count.cc",
        "std::atomic<int> hits{0};\n"
        "void Record() {\n"
        "  hits.fetch_add(1, std::memory_order_acq_rel);\n"
        "  int v = hits.load(std::memory_order_acquire);\n"
        "  hits.store(0, std::memory_order_release);\n"
        "}\n"}},
      {"atomic-ordering"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(AtomicOrderingTest, RelaxedIsLegalOnTheAllowlistedSeams) {
  const std::string body =
      "std::atomic<size_t> head{0};\n"
      "size_t Peek() { return head.load(std::memory_order_relaxed); }\n";
  // The observability seams that carry reviewed protocols: seqlock
  // slots, GCRA limiter, watchdog progress slots.
  for (const char* path :
       {"src/obs/flight_recorder.cc", "src/obs/log.cc",
        "src/obs/watchdog.cc"}) {
    const AnalysisResult result =
        RunAnalysis({{path, body}}, {"atomic-ordering"});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.findings.empty()) << path;
  }
}

TEST(AtomicOrderingTest, HeaderAtomicsAreKnownInTheIncludingSource) {
  const AnalysisResult result = RunAnalysis(
      {{"src/eval/count.h", "struct C { std::atomic<int> hits{0}; };\n"},
       {"src/eval/count.cc",
        "#include \"src/eval/count.h\"\n"
        "void Record(C& c) { c.hits.fetch_add(1); }\n"}},
      {"atomic-ordering"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].path, "src/eval/count.cc");
}

// --- blocking-in-hot-path ----------------------------------------------------

TEST(BlockingInHotPathTest, FlagsTransitiveBlockingCallFromOffer) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/d.cc",
        "void Pace() { std::this_thread::sleep_for(kTick); }\n"
        "bool Offer(const Post& post) {\n"
        "  Pace();\n"
        "  return true;\n"
        "}\n"}},
      {"blocking-in-hot-path"});
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, 1);
  EXPECT_NE(result.findings[0].message.find("sleep_for"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("Offer -> Pace"),
            std::string::npos);
}

TEST(BlockingInHotPathTest, UnreachableBlockingCallIsClean) {
  const AnalysisResult result = RunAnalysis(
      {{"src/core/d.cc",
        "bool Offer(const Post& post) { return true; }\n"
        "void DumpDebug() { printf(\"state\\n\"); }\n"}},
      {"blocking-in-hot-path"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(BlockingInHotPathTest, OfferOutsideCoreIsNotARoot) {
  const AnalysisResult result = RunAnalysis(
      {{"src/eval/harness.cc",
        "bool Offer(const Post& post) {\n"
        "  printf(\"measuring\\n\");\n"
        "  return true;\n"
        "}\n"}},
      {"blocking-in-hot-path"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

TEST(BlockingInHotPathTest, IncludeGateBlocksUnrelatedOverloads) {
  // A same-named function in a file the root cannot reach through its
  // includes must not enter the walk.
  const AnalysisResult result = RunAnalysis(
      {{"src/core/d.cc",
        "bool Offer(const Post& post) { return Score(post) > 0; }\n"},
       {"src/eval/score.cc",
        "int Score(const Post& post) {\n"
        "  printf(\"eval\\n\");\n"
        "  return 1;\n"
        "}\n"}},
      {"blocking-in-hot-path"});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.findings.empty());
}

}  // namespace
}  // namespace analysis
}  // namespace firehose
