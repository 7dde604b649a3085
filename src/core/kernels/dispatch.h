#ifndef FIREHOSE_CORE_KERNELS_DISPATCH_H_
#define FIREHOSE_CORE_KERNELS_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace firehose {
namespace kernels {

/// Runtime-dispatched SIMD coverage kernels (DESIGN.md §4k).
///
/// The coverage kernel's inner loop — find the newest fingerprint within
/// Hamming distance λc of a probe — and the cosine baseline's sparse dot
/// product are the two primitives every diversifier pays for per post.
/// Each ships in up to three implementations compiled in separate
/// translation units with their own target flags (scalar, AVX2,
/// AVX-512VPOPCNTDQ); one CPUID probe at first use picks the widest
/// variant the machine supports, overridable with FIREHOSE_KERNEL=
/// scalar|avx2|avx512 for differential testing.
///
/// The contract that makes dispatch safe to land: every variant is
/// bit-identical to the scalar reference on *decisions and counters*, not
/// just decisions. Both primitives are pure functions of their inputs
/// (no float accumulation whose rounding could vary with lane order:
/// the sparse dot sums u32 products in a u64, which is order-free), so
/// the caller-side comparisons/pruned arithmetic in ScanCoveredSimHash
/// cannot diverge across variants. tests/kernel_equivalence_fuzz_test.cc
/// pins this down per variant.

/// Sentinel for "no index in range matched".
inline constexpr size_t kNoHit = static_cast<size_t>(-1);

/// Ascending tiers; dispatch clamps an unavailable request downward.
enum class KernelVariant : uint8_t {
  kScalar = 0,  ///< reference loop (hardware popcount via -mpopcnt)
  kAvx2 = 1,    ///< 256-bit lanes, pshufb nibble-LUT popcount
  kAvx512 = 2,  ///< 512-bit lanes, VPOPCNTQ
};

/// One variant's entry points. Both functions are pure.
struct KernelOps {
  KernelVariant variant;
  const char* name;  ///< "scalar" | "avx2" | "avx512"

  /// Largest j in [lo, hi) with popcount(hashes[j] ^ probe) <= lambda_c,
  /// or kNoHit. `lambda_c` is signed on purpose: -1 is the coverage
  /// kernel's "nothing is ever content-similar" convention and >= 64
  /// means every entry matches.
  size_t (*find_newest_within)(const uint64_t* hashes, size_t lo, size_t hi,
                               uint64_t probe, int lambda_c);

  /// Exact sparse dot product of two term-frequency vectors given as
  /// parallel (strictly-increasing hash, count) lanes: the sum of
  /// a_count[i] * b_count[j] over all pairs with a_hash[i] == b_hash[j].
  /// Integer-exact, so the sum is independent of lane order.
  uint64_t (*sparse_dot)(const uint64_t* a_hash, const uint32_t* a_count,
                         size_t a_n, const uint64_t* b_hash,
                         const uint32_t* b_count, size_t b_n);
};

/// The variant the process uses: resolved once (CPUID probe + the
/// FIREHOSE_KERNEL override) on first call and cached. Hot paths call
/// this per scan; it is one predicted branch on a function-local static.
const KernelOps& ActiveKernelOps();

/// The named variant, or null when it is not compiled into this binary
/// or this CPU cannot execute it. `kScalar` is never null.
const KernelOps* KernelOpsFor(KernelVariant variant);

/// Every usable variant, scalar first, ascending — the differential fuzz
/// harness and the bench dispatch matrix iterate this.
std::vector<const KernelOps*> AvailableKernelOps();

/// How dispatch was resolved, for /statusz and the bench header. All
/// strings are static; `requested` is "auto" when FIREHOSE_KERNEL was
/// unset or unrecognized.
struct KernelDispatchReport {
  const char* active;     ///< variant hot paths use
  const char* requested;  ///< FIREHOSE_KERNEL value, or "auto"
  const char* best;       ///< widest variant this binary + CPU supports
  const char* compiled;   ///< comma-joined variants built into the binary
};
const KernelDispatchReport& GetKernelDispatchReport();

}  // namespace kernels
}  // namespace firehose

#endif  // FIREHOSE_CORE_KERNELS_DISPATCH_H_
