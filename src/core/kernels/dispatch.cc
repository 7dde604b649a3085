#include "src/core/kernels/dispatch.h"

#include <cstdlib>
#include <cstring>

#include "src/core/kernels/variants.h"

// FIREHOSE_KERNEL_HAVE_* are per-file compile definitions from
// src/CMakeLists.txt: a define is present exactly when the corresponding
// variant TU is in the build (its target flags passed the compiler
// check). A toolchain without the AVX flags therefore produces a binary
// whose only tier is scalar, and the dispatch report says so.

namespace firehose {
namespace kernels {
namespace {

const KernelOps kScalarOps = {KernelVariant::kScalar, "scalar",
                              &FindNewestWithinScalar, &SparseDotScalar};

#if defined(FIREHOSE_KERNEL_HAVE_AVX2)
const KernelOps kAvx2Ops = {KernelVariant::kAvx2, "avx2",
                            &FindNewestWithinAvx2, &SparseDotAvx2};
#endif
#if defined(FIREHOSE_KERNEL_HAVE_AVX512)
const KernelOps kAvx512Ops = {KernelVariant::kAvx512, "avx512",
                              &FindNewestWithinAvx512, &SparseDotAvx512};
#endif

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports checks XCR0/OS state for vector extensions.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

/// Usable = compiled into this binary AND executable on this CPU.
const KernelOps* UsableOps(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return &kScalarOps;
    case KernelVariant::kAvx2:
#if defined(FIREHOSE_KERNEL_HAVE_AVX2)
      if (CpuHasAvx2()) return &kAvx2Ops;
#endif
      return nullptr;
    case KernelVariant::kAvx512:
#if defined(FIREHOSE_KERNEL_HAVE_AVX512)
      if (CpuHasAvx512()) return &kAvx512Ops;
#endif
      return nullptr;
  }
  return nullptr;
}

const KernelOps* BestOps() {
  for (int tier = static_cast<int>(KernelVariant::kAvx512); tier > 0;
       --tier) {
    const KernelOps* ops = UsableOps(static_cast<KernelVariant>(tier));
    if (ops != nullptr) return ops;
  }
  return &kScalarOps;
}

struct Resolved {
  const KernelOps* active;
  KernelDispatchReport report;
};

/// One-time probe: CPUID checks plus the FIREHOSE_KERNEL override, read
/// here and never again (the env read is a sanctioned cold-init seam for
/// the blocking-in-hot-path analyzer pass — see tools/layers and
/// src/analysis/sema/passes.cc). An override above what the binary or
/// CPU supports clamps downward tier by tier, so a FIREHOSE_KERNEL test
/// matrix is safe to run on any machine.
Resolved ResolveKernelOps() {
  Resolved r;
  const KernelOps* best = BestOps();
  r.active = best;
  r.report.requested = "auto";
  const char* env = std::getenv("FIREHOSE_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    KernelVariant want = KernelVariant::kScalar;
    bool recognized = true;
    if (std::strcmp(env, "scalar") == 0) {
      want = KernelVariant::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = KernelVariant::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      want = KernelVariant::kAvx512;
    } else {
      recognized = false;  // unknown value: keep auto selection
    }
    if (recognized) {
      const KernelOps* ops = nullptr;
      for (int tier = static_cast<int>(want); ops == nullptr && tier >= 0;
           --tier) {
        ops = UsableOps(static_cast<KernelVariant>(tier));
      }
      r.active = ops != nullptr ? ops : &kScalarOps;
      switch (want) {  // report the request with a static string
        case KernelVariant::kScalar: r.report.requested = "scalar"; break;
        case KernelVariant::kAvx2: r.report.requested = "avx2"; break;
        case KernelVariant::kAvx512: r.report.requested = "avx512"; break;
      }
    }
  }
  r.report.active = r.active->name;
  r.report.best = best->name;
  r.report.compiled = "scalar"
#if defined(FIREHOSE_KERNEL_HAVE_AVX2)
                      ",avx2"
#endif
#if defined(FIREHOSE_KERNEL_HAVE_AVX512)
                      ",avx512"
#endif
      ;
  return r;
}

const Resolved& ResolvedDispatch() {
  static const Resolved resolved = ResolveKernelOps();
  return resolved;
}

}  // namespace

const KernelOps& ActiveKernelOps() { return *ResolvedDispatch().active; }

const KernelOps* KernelOpsFor(KernelVariant variant) {
  return UsableOps(variant);
}

std::vector<const KernelOps*> AvailableKernelOps() {
  std::vector<const KernelOps*> ops;
  for (int tier = 0; tier <= static_cast<int>(KernelVariant::kAvx512);
       ++tier) {
    const KernelOps* variant = UsableOps(static_cast<KernelVariant>(tier));
    if (variant != nullptr) ops.push_back(variant);
  }
  return ops;
}

const KernelDispatchReport& GetKernelDispatchReport() {
  return ResolvedDispatch().report;
}

}  // namespace kernels
}  // namespace firehose
