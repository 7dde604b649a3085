// Dispatch-report assertions driven by the FIREHOSE_KERNEL environment
// variable. The ctest registration runs this binary several times with
// different FIREHOSE_KERNEL values (see tests/CMakeLists.txt); each run
// asserts the report is consistent with its own environment, and the
// forced-scalar run additionally pins the /statusz surface: every build
// compiles the scalar variant, so "FIREHOSE_KERNEL=scalar must resolve
// to scalar" holds on any machine, flags or not.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/kernels/dispatch.h"
#include "src/obs/debug_server.h"
#include "src/runtime/pipeline.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using kernels::AvailableKernelOps;
using kernels::GetKernelDispatchReport;
using kernels::KernelDispatchReport;

bool CompiledListContains(const KernelDispatchReport& report,
                          const std::string& name) {
  const std::string compiled = std::string(",") + report.compiled + ",";
  return compiled.find("," + name + ",") != std::string::npos;
}

TEST(KernelDispatchEnv, ReportIsInternallyConsistent) {
  const KernelDispatchReport& report = GetKernelDispatchReport();
  // Scalar is unconditionally compiled and is the dispatch floor.
  EXPECT_TRUE(CompiledListContains(report, "scalar")) << report.compiled;
  EXPECT_TRUE(CompiledListContains(report, report.active))
      << report.active << " not in " << report.compiled;
  EXPECT_TRUE(CompiledListContains(report, report.best)) << report.best;
  // The active ops object agrees with the report.
  EXPECT_STREQ(kernels::ActiveKernelOps().name, report.active);
  // The available list starts at scalar and contains the active variant.
  bool found_active = false;
  for (const kernels::KernelOps* ops : AvailableKernelOps()) {
    if (std::strcmp(ops->name, report.active) == 0) found_active = true;
  }
  EXPECT_TRUE(found_active);
}

TEST(KernelDispatchEnv, RequestedMatchesEnvironment) {
  const char* env = std::getenv("FIREHOSE_KERNEL");
  const KernelDispatchReport& report = GetKernelDispatchReport();
  const std::vector<std::string> known = {"scalar", "avx2", "avx512"};
  if (env == nullptr ||
      std::find(known.begin(), known.end(), env) == known.end()) {
    EXPECT_STREQ(report.requested, "auto");
    // Auto dispatch runs the widest usable variant.
    EXPECT_STREQ(report.active, report.best);
    return;
  }
  EXPECT_STREQ(report.requested, env);
  // A request never resolves *up*: active <= requested tier, and when the
  // requested variant is usable it is chosen exactly.
  const auto tier = [&](const std::string& name) {
    return std::find(known.begin(), known.end(), name) - known.begin();
  };
  EXPECT_LE(tier(report.active), tier(report.requested));
  for (const kernels::KernelOps* ops : AvailableKernelOps()) {
    if (std::strcmp(ops->name, env) == 0) {
      EXPECT_STREQ(report.active, env);  // usable request honored exactly
    }
  }
}

TEST(KernelDispatchEnv, ForcedScalarAlwaysResolves) {
  const char* env = std::getenv("FIREHOSE_KERNEL");
  if (env == nullptr || std::strcmp(env, "scalar") != 0) {
    GTEST_SKIP() << "only meaningful under FIREHOSE_KERNEL=scalar";
  }
  const KernelDispatchReport& report = GetKernelDispatchReport();
  EXPECT_STREQ(report.active, "scalar");
  EXPECT_STREQ(report.requested, "scalar");
  EXPECT_EQ(kernels::ActiveKernelOps().variant,
            kernels::KernelVariant::kScalar);
}

// The dispatch decision must be visible where operators look: the
// pipeline's /statusz runtime block carries a "kernel" field equal to
// the report's active variant.
TEST(KernelDispatchEnv, StatuszCarriesActiveKernel) {
  const AuthorGraph graph = testing_util::PaperExampleGraph();
  auto diversifier = MakeDiversifier(
      Algorithm::kUniBin, testing_util::PaperExampleThresholds(), &graph);
  const PostStream stream = testing_util::PaperExamplePosts();
  PostStream out;
  CollectSink sink(&out);
  Pipeline pipeline(diversifier.get(), &sink);

  obs::DebugState debug;
  PipelineObs o;
  o.debug = &debug;
  o.publish_interval_nanos = 0;  // publish every post
  pipeline.Run(stream, o);

  const std::string status = debug.status_json();
  const std::string want = std::string("\"kernel\": \"") +
                           GetKernelDispatchReport().active + "\"";
  EXPECT_NE(status.find(want), std::string::npos)
      << "statusz block " << status << " missing " << want;
}

}  // namespace
}  // namespace firehose
