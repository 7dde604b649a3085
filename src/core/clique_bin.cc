#include "src/core/clique_bin.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace firehose {

CliqueBinDiversifier::CliqueBinDiversifier(
    const DiversityThresholds& thresholds, const CliqueCover* cover)
    : thresholds_(thresholds), cover_(cover) {}

bool CliqueBinDiversifier::Offer(const Post& post) {
  ++stats_.posts_in;
  const int64_t cutoff = post.time_ms - thresholds_.lambda_t_ms;
  const std::vector<CliqueId>& cliques = cover_->CliquesOf(post.author);

  // Posts sharing a clique with the author are by construction similar to
  // it (clique members are pairwise neighbors), so only content is checked.
  auto author_similar = [](AuthorId) { return true; };
  bool covered = false;
  size_t evicted = 0;
  const bool use_index =
      kernel_options_.index_min_bin_size != static_cast<size_t>(-1);
  for (CliqueId clique : cliques) {
    PostBin& bin = bins_[clique];
    evicted += bin.EvictOlderThan(cutoff);
    const CoverageScanResult scan =
        use_index ? index_caches_[clique].Scan(bin, cutoff, post.simhash,
                                               post.author, thresholds_,
                                               author_similar, kernel_options_)
                  : ScanCoveredSimHash(bin, cutoff, post.simhash, post.author,
                                       thresholds_, author_similar);
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
  // firehose-lint: allow(unordered-iteration) -- order-independent sum
  for (const auto& [clique, bin] : bins_) occupancy.binned_posts += bin.size();
  return occupancy;
}

void CliqueBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  payload.PutVarint(bins_.size());
  // Serialize in sorted key order: hash-map iteration order would make the
  // snapshot bytes differ from run to run for identical state.
  std::vector<CliqueId> keys;
  keys.reserve(bins_.size());
  // firehose-lint: allow(unordered-iteration) -- keys are sorted below
  for (const auto& [clique, bin] : bins_) keys.push_back(clique);
  std::sort(keys.begin(), keys.end());
  for (CliqueId clique : keys) {
    payload.PutVarint(clique);
    bins_.at(clique).Save(&payload);
  }
  internal::WrapChecksummed(payload, out);
}

bool CliqueBinDiversifier::LoadState(BinaryReader& in) {
  bins_.clear();
  bins_bytes_ = 0;
  index_caches_.clear();  // stale push sequences: rebuild lazily
  std::string payload;
  if (internal::UnwrapChecksummed(in, &payload)) {
    BinaryReader state(payload);
    if (LoadStatePayload(state)) return true;
  }
  // Malformed snapshot: reset to empty so the object stays usable.
  stats_ = IngestStats{};
  bins_.clear();
  bins_bytes_ = 0;
  return false;
}

bool CliqueBinDiversifier::LoadStatePayload(BinaryReader& in) {
  if (!internal::LoadStats(in, &stats_)) return false;
  uint64_t count;
  if (!in.GetVarint(&count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t clique;
    if (!in.GetVarint(&clique) || clique > 0xFFFFFFFFull) return false;
    PostBin& bin = bins_[static_cast<CliqueId>(clique)];
    if (!bin.Load(in)) return false;
    bins_bytes_ += bin.ApproxBytes();
  }
  return in.AtEnd();
}

size_t CliqueBinDiversifier::ApproxBytes() const {
  size_t bytes =
      bins_bytes_ +
      bins_.size() * (sizeof(PostBin) + sizeof(CliqueId) + 2 * sizeof(void*));
  // firehose-lint: allow(unordered-iteration) -- order-independent sum
  for (const auto& [clique, cache] : index_caches_) {
    bytes += cache.ApproxBytes();
  }
  return bytes;
}

}  // namespace firehose
