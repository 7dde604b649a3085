#ifndef FIREHOSE_STREAM_STATS_H_
#define FIREHOSE_STREAM_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace firehose {

/// Work and output counters accumulated by a diversifier while ingesting a
/// stream — the paper's four measured quantities (Figures 11-16):
/// running time is measured externally; RAM, post comparisons and post
/// insertions are tracked here.
struct IngestStats {
  uint64_t posts_in = 0;      ///< posts offered
  uint64_t posts_out = 0;     ///< posts admitted to the diversified stream Z
  uint64_t comparisons = 0;   ///< pairwise post comparisons performed
  uint64_t insertions = 0;    ///< bin insertions (copies count individually)
  uint64_t evictions = 0;     ///< bin entries aged out of the λt window

  /// Candidate entries disposed of *without* a pairwise comparison: the
  /// expired prefix a coverage scan skips by binary search. Every bin
  /// diversifier evicts its bin to the λt window before scanning it, so
  /// their scans leave this at zero. Together with `comparisons` this is
  /// the kernel's full candidate ledger: comparisons + pruned ==
  /// candidates considered. Kept in the snapshot layout.
  uint64_t pruned = 0;

  /// High-water mark of *concurrently resident* bin memory. For a single
  /// diversifier this is exact. MergeFrom combines it by max, which is a
  /// lower bound for engines whose diversifiers grow at the same time;
  /// aggregators that track the combined footprint per offer (the
  /// multi-user engines do) overwrite it with the true concurrent peak.
  size_t peak_bytes = 0;

  /// Sum of the constituent per-diversifier peaks. Equal to `peak_bytes`
  /// for a single diversifier; after MergeFrom it is an *upper bound* on
  /// the true concurrent peak (each constituent peaking at a different
  /// moment is counted at its own worst). Figures 11-16 report RAM, so
  /// the two bounds are kept apart instead of conflated.
  size_t sum_peak_bytes = 0;

  /// Records the current resident bytes of one diversifier's bins.
  void UpdatePeak(size_t current_bytes) {
    peak_bytes = std::max(peak_bytes, current_bytes);
    sum_peak_bytes = std::max(sum_peak_bytes, peak_bytes);
  }

  void MergeFrom(const IngestStats& other) {
    posts_in += other.posts_in;
    posts_out += other.posts_out;
    comparisons += other.comparisons;
    insertions += other.insertions;
    evictions += other.evictions;
    pruned += other.pruned;
    peak_bytes = std::max(peak_bytes, other.peak_bytes);
    sum_peak_bytes += other.sum_peak_bytes;
  }
};

}  // namespace firehose

#endif  // FIREHOSE_STREAM_STATS_H_
