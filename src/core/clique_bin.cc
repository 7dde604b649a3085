#include "src/core/clique_bin.h"

#include "src/core/coverage_kernel.h"
#include "src/obs/trace.h"

namespace firehose {

CliqueBinDiversifier::CliqueBinDiversifier(
    const DiversityThresholds& thresholds, const CliqueCover* cover)
    : thresholds_(thresholds), cover_(cover), bins_(cover->num_cliques()) {}

bool CliqueBinDiversifier::Offer(const Post& post) {
  ++stats_.posts_in;
  const int64_t cutoff = post.time_ms - thresholds_.lambda_t_ms;
  const std::span<const CliqueId> cliques = cover_->CliquesOf(post.author);

  // Posts sharing a clique with the author are by construction similar to
  // it (clique members are pairwise neighbors), so only content is checked.
  auto author_similar = [](AuthorId) { return true; };
  bool covered = false;
  size_t evicted = 0;
  for (CliqueId clique : cliques) {
    PostBin& bin = bins_[clique];
    evicted += bin.EvictOlderThan(cutoff);
    const CoverageScanResult scan = ScanCoveredSimHash(
        bin, cutoff, post.simhash, post.author, thresholds_, author_similar);
    stats_.comparisons += scan.comparisons;
    stats_.pruned += scan.pruned;
    if (scan.covered) {
      covered = true;
      break;
    }
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    obs::GlobalTraceInstant("CliqueBin.evict", "bin");
  }
  if (covered) {
    stats_.UpdatePeak(ApproxBytes());
    return false;
  }

  const BinEntry entry{post.time_ms, post.simhash, post.author, post.id};
  for (CliqueId clique : cliques) {
    PostBin& bin = bins_[clique];
    const size_t before = bin.ApproxBytes();
    bin.Push(entry);
    bins_bytes_ += bin.ApproxBytes() - before;
    ++stats_.insertions;
  }
  ++stats_.posts_out;
  stats_.UpdatePeak(ApproxBytes());
  return true;
}

BinOccupancy CliqueBinDiversifier::bin_occupancy() const {
  BinOccupancy occupancy;
  occupancy.num_bins = bins_.size();
  for (const PostBin& bin : bins_) occupancy.binned_posts += bin.size();
  return occupancy;
}

void CliqueBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  // Bins that never held a ring carry no state; the rest go out in
  // ascending clique order.
  size_t count = 0;
  for (const PostBin& bin : bins_) count += bin.ApproxBytes() > 0 ? 1 : 0;
  payload.PutVarint(count);
  for (size_t clique = 0; clique < bins_.size(); ++clique) {
    if (bins_[clique].ApproxBytes() == 0) continue;
    payload.PutVarint(clique);
    bins_[clique].Save(&payload);
  }
  internal::WrapChecksummed(payload, out);
}

bool CliqueBinDiversifier::LoadState(BinaryReader& in) {
  bins_.clear();
  bins_.resize(cover_->num_cliques());
  bins_bytes_ = 0;
  std::string payload;
  if (internal::UnwrapChecksummed(in, &payload)) {
    BinaryReader state(payload);
    if (LoadStatePayload(state)) return true;
  }
  // Malformed snapshot: reset to empty so the object stays usable.
  stats_ = IngestStats{};
  bins_.clear();
  bins_.resize(cover_->num_cliques());
  bins_bytes_ = 0;
  return false;
}

bool CliqueBinDiversifier::LoadStatePayload(BinaryReader& in) {
  if (!internal::LoadStats(in, &stats_)) return false;
  uint64_t count;
  if (!in.GetVarint(&count)) return false;
  uint64_t next = 0;  // smallest clique id the next key may take
  for (uint64_t i = 0; i < count; ++i) {
    // Keys are clique ids of this cover, strictly ascending: a snapshot
    // of another cover, or a repeated key, is malformed.
    uint64_t clique;
    if (!in.GetVarint(&clique) || clique < next || clique >= bins_.size()) {
      return false;
    }
    next = clique + 1;
    PostBin& bin = bins_[static_cast<size_t>(clique)];
    if (!bin.Load(in)) return false;
    bins_bytes_ += bin.ApproxBytes();
  }
  return in.AtEnd();
}

size_t CliqueBinDiversifier::ApproxBytes() const {
  return bins_bytes_ + bins_.size() * sizeof(PostBin);
}

}  // namespace firehose
