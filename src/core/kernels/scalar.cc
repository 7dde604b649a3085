// Scalar reference kernels: the dispatch floor and the oracle every wider
// variant is fuzzed against. This TU gets no per-file target flags, but
// the top-level CMakeLists.txt builds every TU with -mpopcnt when the
// compiler accepts it, so std::popcount here is the hardware instruction.

#include <bit>

#include "src/core/kernels/variants.h"

namespace firehose {
namespace kernels {

size_t FindNewestWithinScalar(const uint64_t* hashes, size_t lo, size_t hi,
                              uint64_t probe, int lambda_c) {
  for (size_t j = hi; j-- > lo;) {
    if (std::popcount(hashes[j] ^ probe) <= lambda_c) return j;
  }
  return static_cast<size_t>(-1);
}

uint64_t SparseDotScalar(const uint64_t* a_hash, const uint32_t* a_count,
                         size_t a_n, const uint64_t* b_hash,
                         const uint32_t* b_count, size_t b_n) {
  uint64_t dot = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a_n && j < b_n) {
    if (a_hash[i] < b_hash[j]) {
      ++i;
    } else if (a_hash[i] > b_hash[j]) {
      ++j;
    } else {
      dot += static_cast<uint64_t>(a_count[i]) * b_count[j];
      ++i;
      ++j;
    }
  }
  return dot;
}

}  // namespace kernels
}  // namespace firehose
