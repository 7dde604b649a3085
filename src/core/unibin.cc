#include "src/core/unibin.h"

#include "src/core/coverage_kernel.h"
#include "src/obs/trace.h"

namespace firehose {

UniBinDiversifier::UniBinDiversifier(const DiversityThresholds& thresholds,
                                     const AuthorGraph* graph)
    : thresholds_(thresholds), graph_(graph) {}

bool UniBinDiversifier::Offer(const Post& post) {
  ++stats_.posts_in;
  const size_t evicted =
      bin_.EvictOlderThan(post.time_ms - thresholds_.lambda_t_ms);
  if (evicted > 0) {
    stats_.evictions += evicted;
    obs::GlobalTraceInstant("UniBin.evict", "bin");
  }

  auto author_similar = [&](AuthorId other) {
    return graph_ != nullptr && graph_->IsNeighbor(post.author, other);
  };
  const CoverageScanResult scan = ScanCoveredSimHash(
      bin_, post.time_ms - thresholds_.lambda_t_ms, post.simhash, post.author,
      thresholds_, author_similar);
  stats_.comparisons += scan.comparisons;
  stats_.pruned += scan.pruned;
  if (scan.covered) {
    stats_.UpdatePeak(ApproxBytes());
    return false;  // covered: redundant
  }

  bin_.Push(BinEntry{post.time_ms, post.simhash, post.author, post.id});
  ++stats_.insertions;
  ++stats_.posts_out;
  stats_.UpdatePeak(ApproxBytes());
  return true;
}

size_t UniBinDiversifier::ApproxBytes() const { return bin_.ApproxBytes(); }

BinOccupancy UniBinDiversifier::bin_occupancy() const {
  return BinOccupancy{1, bin_.size()};
}

void UniBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  bin_.Save(&payload);
  internal::WrapChecksummed(payload, out);
}

bool UniBinDiversifier::LoadState(BinaryReader& in) {
  std::string payload;
  if (internal::UnwrapChecksummed(in, &payload)) {
    BinaryReader state(payload);
    if (internal::LoadStats(state, &stats_) && bin_.Load(state) &&
        state.AtEnd()) {
      return true;
    }
  }
  // Malformed snapshot: reset to empty so the object stays usable.
  stats_ = IngestStats{};
  bin_ = PostBin{};
  return false;
}

}  // namespace firehose
