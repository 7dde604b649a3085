#ifndef FIREHOSE_CORE_DIVERSIFIER_H_
#define FIREHOSE_CORE_DIVERSIFIER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include <string>

#include "src/core/thresholds.h"
#include "src/util/binary.h"
#include "src/stream/post.h"
#include "src/stream/post_bin.h"
#include "src/stream/stats.h"
#include "src/util/bitops.h"
#include "src/util/build_info.h"
#include "src/util/crc32c.h"

namespace firehose {

/// Online streaming diversifier solving SPSD (Problem 1): posts are offered
/// in timestamp order and the decision to admit each post into the
/// diversified sub-stream Z is made immediately at arrival.
///
/// Implementations: UniBinDiversifier, NeighborBinDiversifier,
/// CliqueBinDiversifier. All three emit the identical sub-stream; they
/// differ in indexing and therefore in RAM/comparison/insertion cost
/// (paper Table 3).
/// Snapshot of a diversifier's bin structure, for observability exports:
/// how many bins the index currently holds and how many post entries live
/// in them (copies count individually, mirroring IngestStats::insertions).
struct BinOccupancy {
  uint64_t num_bins = 0;
  uint64_t binned_posts = 0;
};

class Diversifier {
 public:
  virtual ~Diversifier() = default;

  /// Offers the next post of the stream. Posts must arrive in
  /// non-decreasing time order. Returns true when the post is
  /// non-redundant and belongs to Z; false when an earlier post in Z
  /// covers it.
  virtual bool Offer(const Post& post) = 0;

  /// Counters accumulated so far.
  virtual const IngestStats& stats() const = 0;

  /// Current resident bytes of the algorithm's bins and indexes.
  virtual size_t ApproxBytes() const = 0;

  /// Current bin count and occupancy. O(number of bins); meant for
  /// export-time sampling, not the per-post hot path.
  virtual BinOccupancy bin_occupancy() const { return {}; }

  /// Human-readable algorithm name ("UniBin", ...).
  virtual std::string_view name() const = 0;

  /// Serializes the mutable runtime state (bins + counters) so a
  /// replacement process can resume ingest mid-stream (failover / rolling
  /// restart). The immutable inputs — author graph, clique cover,
  /// thresholds — are persisted separately via src/io/persist.h and must
  /// match on restore. Default: unsupported (writes nothing).
  virtual void SaveState(BinaryWriter* out) const { (void)out; }

  /// Restores state written by SaveState on an identically-configured
  /// diversifier. Returns false (state unchanged or reset to empty) if
  /// unsupported or the snapshot is malformed.
  virtual bool LoadState(BinaryReader& in) {
    (void)in;
    return false;
  }
};

namespace internal {

/// Envelope around every diversifier state snapshot:
///
///   varint state-format version | varint CRC32C(payload) | payload
///
/// The version token makes cross-build incompatibility an explicit error
/// instead of a parse accident, and the checksum turns *any* bit flip or
/// truncation of the payload into a clean LoadState failure — without it,
/// a flipped varint byte can decode as a plausible alternative state.
inline void WrapChecksummed(const BinaryWriter& payload, BinaryWriter* out) {
  out->PutVarint(kStateFormatVersion);
  out->PutVarint(Crc32c(payload.buffer()));
  out->PutString(payload.buffer());
}

/// Peels the envelope; false on version mismatch, checksum mismatch or
/// truncation. `payload` is untouched on failure.
inline bool UnwrapChecksummed(BinaryReader& in, std::string* payload) {
  uint64_t version = 0;
  uint64_t crc = 0;
  std::string bytes;
  if (!in.GetVarint(&version) || version != kStateFormatVersion ||
      !in.GetVarint(&crc) || !in.GetString(&bytes)) {
    return false;
  }
  if (crc != Crc32c(bytes)) return false;
  *payload = std::move(bytes);
  return true;
}

inline void SaveStats(const IngestStats& stats, BinaryWriter* out) {
  out->PutVarint(stats.posts_in);
  out->PutVarint(stats.posts_out);
  out->PutVarint(stats.comparisons);
  out->PutVarint(stats.insertions);
  out->PutVarint(stats.evictions);
  out->PutVarint(stats.pruned);
  out->PutVarint(stats.peak_bytes);
  out->PutVarint(stats.sum_peak_bytes);
}

inline bool LoadStats(BinaryReader& in, IngestStats* stats) {
  uint64_t peak = 0;
  uint64_t sum_peak = 0;
  const bool ok = in.GetVarint(&stats->posts_in) &&
                  in.GetVarint(&stats->posts_out) &&
                  in.GetVarint(&stats->comparisons) &&
                  in.GetVarint(&stats->insertions) &&
                  in.GetVarint(&stats->evictions) &&
                  in.GetVarint(&stats->pruned) && in.GetVarint(&peak) &&
                  in.GetVarint(&sum_peak);
  stats->peak_bytes = static_cast<size_t>(peak);
  stats->sum_peak_bytes = static_cast<size_t>(sum_peak);
  return ok;
}

}  // namespace internal

namespace internal {

/// The coverage predicate shared by all bin algorithms, minus the time
/// dimension (bins are already time-windowed): true when `entry` covers a
/// new post with fingerprint `simhash` by author `author`.
///
/// `author_similar` is evaluated lazily only when content matches, the
/// cheap-dimension-first pruning the paper describes in its third
/// challenge.
template <typename AuthorSimilarFn>
bool CoversContentAndAuthor(const BinEntry& entry, uint64_t simhash,
                            AuthorId author,
                            const DiversityThresholds& thresholds,
                            AuthorSimilarFn&& author_similar) {
  if (thresholds.use_content &&
      HammingDistance64(entry.simhash, simhash) > thresholds.lambda_c) {
    return false;
  }
  if (thresholds.use_author && entry.author != author &&
      !author_similar(entry.author)) {
    return false;
  }
  return true;
}

}  // namespace internal

}  // namespace firehose

#endif  // FIREHOSE_CORE_DIVERSIFIER_H_
