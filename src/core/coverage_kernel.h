#ifndef FIREHOSE_CORE_COVERAGE_KERNEL_H_
#define FIREHOSE_CORE_COVERAGE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/core/kernels/dispatch.h"
#include "src/core/thresholds.h"
#include "src/stream/post.h"
#include "src/stream/post_bin.h"

namespace firehose {

/// Batched coverage kernel: the one inner loop every diversifier spends
/// its time in — scanning a time-windowed PostBin newest-first and
/// testing the three-way cover predicate of Definition 1 against each
/// candidate. The kernel walks the bin's structure-of-arrays lane spans
/// (at most two contiguous ring segments) instead of performing a masked
/// ring-index computation and a full-entry gather per candidate, and
/// prunes the expired prefix with one binary search over the time lane.
///
/// Accounting contract (differential-oracle tested): `comparisons` counts
/// candidates actually subjected to a pairwise content/author test —
/// exactly the entries the pre-kernel scalar loop would have counted —
/// and `pruned` counts candidates disposed of without such a test (the
/// skipped expired prefix). Against a pre-evicted bin, comparisons
/// matches the legacy per-entry loop bit for bit and pruned is zero.

/// Outcome of one coverage scan.
struct CoverageScanResult {
  bool covered = false;       ///< some candidate covers the probe post
  uint64_t comparisons = 0;   ///< pairwise tests performed
  uint64_t pruned = 0;        ///< expired entries skipped without a test
};

/// Scans entries with time_ms >= cutoff_ms, newest first, stopping at the
/// first candidate for which `covers` returns true. `covers` is invoked as
/// covers(index_from_oldest, time_ms, simhash, author) so callers that
/// keep per-entry side data (e.g. CosineUniBin's term vectors) can address
/// it by the bin's logical index. Entries older than cutoff_ms are never
/// touched: the λt boundary is binary-searched in the time lane and
/// reported as `pruned`. The LaneSpan views acquired here must not
/// outlive a mutating call on `bin` — the `view-invalidation` analyzer
/// pass enforces that pattern repo-wide (DESIGN.md §4g).
template <typename CoverFn>
CoverageScanResult ScanCovered(const PostBin& bin, int64_t cutoff_ms,
                               CoverFn&& covers) {
  CoverageScanResult result;
  if (bin.empty()) return result;
  const size_t boundary = bin.CountOlderThan(cutoff_ms);
  result.pruned = boundary;
  PostBin::LaneSpan segments[2];
  const size_t num_segments = bin.Segments(segments);
  size_t base = bin.size();  // logical index of each segment's end
  for (size_t s = num_segments; s-- > 0;) {
    const PostBin::LaneSpan& seg = segments[s];
    base -= seg.size;
    // Segment-local scan range [lo, hi): logical indices >= boundary.
    const size_t lo = boundary > base ? boundary - base : 0;
    if (lo >= seg.size) break;  // everything older is expired
    for (size_t j = seg.size; j-- > lo;) {
      ++result.comparisons;
      if (covers(base + j, seg.time_ms[j], seg.simhash[j], seg.author[j])) {
        result.covered = true;
        return result;
      }
    }
  }
  return result;
}

/// The SimHash fast path: the content dimension runs through the
/// runtime-dispatched find-newest-within-λc kernel (src/core/kernels/,
/// DESIGN.md §4k) over the fingerprint lane, touching the author lane
/// only on a content hit (the paper's cheap-dimension-first pruning).
/// Semantics match internal::CoversContentAndAuthor applied newest-first
/// with early exit. `ops` variant taking explicit kernel ops is the seam
/// the cross-kernel differential fuzz harness drives; production callers
/// use the ActiveKernelOps() overload below.
template <typename AuthorSimilarFn>
CoverageScanResult ScanCoveredSimHashWithOps(
    const kernels::KernelOps& ops, const PostBin& bin, int64_t cutoff_ms,
    uint64_t simhash, AuthorId author, const DiversityThresholds& thresholds,
    AuthorSimilarFn&& author_similar) {
  CoverageScanResult result;
  if (bin.empty()) return result;
  const size_t boundary = bin.CountOlderThan(cutoff_ms);
  result.pruned = boundary;
  PostBin::LaneSpan segments[2];
  const size_t num_segments = bin.Segments(segments);
  const bool use_author = thresholds.use_author;
  // Signed on purpose: λc = -1 is the "nothing is ever content-similar"
  // convention (any distance exceeds it). use_content = false reads as
  // "everything is content-similar": 64 >= any possible distance.
  const int lambda_c = thresholds.use_content ? thresholds.lambda_c : 64;
  if (num_segments == 2) {
    // The scan crosses the ring's wrap boundary: while the kernel walks
    // the newer segment, pull the older segment's newest cache lines in
    // (they are the next bytes the scan touches on an all-miss).
    const PostBin::LaneSpan& older = segments[0];
    for (size_t back = 0; back < 32 && back < older.size; back += 8) {
      __builtin_prefetch(older.simhash + (older.size - 1 - back), 0, 1);
    }
  }
  size_t base = bin.size();
  for (size_t s = num_segments; s-- > 0;) {
    const PostBin::LaneSpan& seg = segments[s];
    base -= seg.size;
    const size_t lo = boundary > base ? boundary - base : 0;
    if (lo >= seg.size) break;
    // The kernel answers "newest content hit in [lo, j)"; the author
    // dimension is resolved here, and an author miss re-enters the
    // kernel below the hit (a content hit whose author dimension misses
    // must not stop the scan).
    size_t j = seg.size;
    while (true) {
      const size_t hit =
          ops.find_newest_within(seg.simhash, lo, j, simhash, lambda_c);
      if (hit == kernels::kNoHit) break;
      if (!use_author || seg.author[hit] == author ||
          author_similar(seg.author[hit])) {
        // Covered at logical index base + hit: comparisons counts the
        // entries examined so far — everything newer than (and
        // including) the hit.
        result.comparisons += (bin.size() - (base + hit));
        result.covered = true;
        return result;
      }
      j = hit;
    }
  }
  result.comparisons += bin.size() - boundary;  // full in-window scan
  return result;
}

/// Production entry point: same scan through the process-wide dispatched
/// kernel variant.
template <typename AuthorSimilarFn>
CoverageScanResult ScanCoveredSimHash(const PostBin& bin, int64_t cutoff_ms,
                                      uint64_t simhash, AuthorId author,
                                      const DiversityThresholds& thresholds,
                                      AuthorSimilarFn&& author_similar) {
  return ScanCoveredSimHashWithOps(
      kernels::ActiveKernelOps(), bin, cutoff_ms, simhash, author, thresholds,
      std::forward<AuthorSimilarFn>(author_similar));
}

}  // namespace firehose

#endif  // FIREHOSE_CORE_COVERAGE_KERNEL_H_
