#include "src/core/neighbor_bin.h"

#include <algorithm>

#include "src/core/coverage_kernel.h"
#include "src/obs/trace.h"

namespace firehose {

NeighborBinDiversifier::NeighborBinDiversifier(
    const DiversityThresholds& thresholds, const AuthorGraph* graph)
    : thresholds_(thresholds), graph_(graph) {}

PostBin& NeighborBinDiversifier::BinOf(AuthorId author) {
  return bins_[author];
}

bool NeighborBinDiversifier::Offer(const Post& post) {
  ++stats_.posts_in;
  const int64_t cutoff = post.time_ms - thresholds_.lambda_t_ms;

  PostBin& own_bin = BinOf(post.author);
  size_t evicted = own_bin.EvictOlderThan(cutoff);

  // Every post in bin(author) is from the author or a similar author, so
  // the author dimension holds by construction; only content is checked.
  auto author_similar = [](AuthorId) { return true; };
  const CoverageScanResult scan = ScanCoveredSimHash(
      own_bin, cutoff, post.simhash, post.author, thresholds_, author_similar);
  stats_.comparisons += scan.comparisons;
  stats_.pruned += scan.pruned;
  if (scan.covered) {
    if (evicted > 0) {
      stats_.evictions += evicted;
      obs::GlobalTraceInstant("NeighborBin.evict", "bin");
    }
    stats_.UpdatePeak(ApproxBytes());
    return false;
  }

  // Non-redundant: insert into the author's bin and each neighbor's bin.
  const BinEntry entry{post.time_ms, post.simhash, post.author, post.id};
  size_t before = own_bin.ApproxBytes();
  own_bin.Push(entry);
  bins_bytes_ += own_bin.ApproxBytes() - before;
  ++stats_.insertions;
  for (AuthorId neighbor : graph_->Neighbors(post.author)) {
    PostBin& bin = BinOf(neighbor);
    evicted += bin.EvictOlderThan(cutoff);
    before = bin.ApproxBytes();
    bin.Push(entry);
    bins_bytes_ += bin.ApproxBytes() - before;
    ++stats_.insertions;
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    obs::GlobalTraceInstant("NeighborBin.evict", "bin");
  }
  ++stats_.posts_out;
  stats_.UpdatePeak(ApproxBytes());
  return true;
}

BinOccupancy NeighborBinDiversifier::bin_occupancy() const {
  BinOccupancy occupancy;
  occupancy.num_bins = bins_.size();
  // firehose-lint: allow(unordered-iteration) -- order-independent sum
  for (const auto& [author, bin] : bins_) occupancy.binned_posts += bin.size();
  return occupancy;
}

void NeighborBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  payload.PutVarint(bins_.size());
  // Serialize in sorted key order: hash-map iteration order would make the
  // snapshot bytes differ from run to run for identical state.
  std::vector<AuthorId> keys;
  keys.reserve(bins_.size());
  // firehose-lint: allow(unordered-iteration) -- keys are sorted below
  for (const auto& [author, bin] : bins_) keys.push_back(author);
  std::sort(keys.begin(), keys.end());
  for (AuthorId author : keys) {
    payload.PutVarint(author);
    bins_.at(author).Save(&payload);
  }
  internal::WrapChecksummed(payload, out);
}

bool NeighborBinDiversifier::LoadState(BinaryReader& in) {
  bins_.clear();
  bins_bytes_ = 0;
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

bool NeighborBinDiversifier::LoadStatePayload(BinaryReader& in) {
  if (!internal::LoadStats(in, &stats_)) return false;
  uint64_t count;
  if (!in.GetVarint(&count)) return false;
  uint64_t next = 0;  // smallest author id the next key may take
  for (uint64_t i = 0; i < count; ++i) {
    // Keys are vertices of this graph, strictly ascending: a snapshot of
    // another graph, or a repeated key, is malformed.
    uint64_t author;
    if (!in.GetVarint(&author) || author < next || author > 0xFFFFFFFFull ||
        !graph_->HasVertex(static_cast<AuthorId>(author))) {
      return false;
    }
    next = author + 1;
    PostBin& bin = bins_[static_cast<AuthorId>(author)];
    if (!bin.Load(in)) return false;
    bins_bytes_ += bin.ApproxBytes();
  }
  return in.AtEnd();
}

size_t NeighborBinDiversifier::ApproxBytes() const {
  // Ring capacities plus hash-map node overhead per bin.
  return bins_bytes_ + bins_.size() * (sizeof(PostBin) + sizeof(AuthorId) +
                                       2 * sizeof(void*));
}

}  // namespace firehose
