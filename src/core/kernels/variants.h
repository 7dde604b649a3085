#ifndef FIREHOSE_CORE_KERNELS_VARIANTS_H_
#define FIREHOSE_CORE_KERNELS_VARIANTS_H_

#include <cstddef>
#include <cstdint>

namespace firehose {
namespace kernels {

/// Entry points of the individual kernel translation units. Each variant
/// lives in its own .cc compiled with that variant's target flags (see
/// src/CMakeLists.txt); dispatch.cc references only the ones whose
/// FIREHOSE_KERNEL_HAVE_* define is set, so a toolchain without a flag
/// simply builds a binary without that tier. Declarations are
/// unconditional — an unreferenced declaration costs nothing.

size_t FindNewestWithinScalar(const uint64_t* hashes, size_t lo, size_t hi,
                              uint64_t probe, int lambda_c);
uint64_t SparseDotScalar(const uint64_t* a_hash, const uint32_t* a_count,
                         size_t a_n, const uint64_t* b_hash,
                         const uint32_t* b_count, size_t b_n);

size_t FindNewestWithinAvx2(const uint64_t* hashes, size_t lo, size_t hi,
                            uint64_t probe, int lambda_c);
uint64_t SparseDotAvx2(const uint64_t* a_hash, const uint32_t* a_count,
                       size_t a_n, const uint64_t* b_hash,
                       const uint32_t* b_count, size_t b_n);

size_t FindNewestWithinAvx512(const uint64_t* hashes, size_t lo, size_t hi,
                              uint64_t probe, int lambda_c);
uint64_t SparseDotAvx512(const uint64_t* a_hash, const uint32_t* a_count,
                         size_t a_n, const uint64_t* b_hash,
                         const uint32_t* b_count, size_t b_n);

}  // namespace kernels
}  // namespace firehose

#endif  // FIREHOSE_CORE_KERNELS_VARIANTS_H_
