#include "src/core/cosine_unibin.h"

#include <algorithm>

#include "src/core/coverage_kernel.h"
#include "src/core/kernels/dispatch.h"
#include "src/text/normalize.h"

namespace firehose {

CosineUniBinDiversifier::CosineUniBinDiversifier(
    const DiversityThresholds& thresholds, double min_cosine_similarity,
    const AuthorGraph* graph)
    : thresholds_(thresholds),
      min_cosine_similarity_(min_cosine_similarity),
      graph_(graph) {}

bool CosineUniBinDiversifier::Offer(const Post& post) {
  ++stats_.posts_in;
  const int64_t cutoff = post.time_ms - thresholds_.lambda_t_ms;
  const size_t evicted = bin_.EvictOlderThan(cutoff);
  for (size_t i = 0; i < evicted; ++i) {
    vectors_bytes_ -= VectorBytes(vectors_.front());
    vectors_.pop_front();
  }
  stats_.evictions += evicted;

  const TfVector vector = TfVector::FromText(Normalize(post.text));

  // The generic kernel path: the cover lambda addresses the parallel term
  // vectors by the bin's logical from-oldest index. The sparse dot runs
  // through the dispatched SIMD kernel; it is integer-exact, so every
  // variant produces the same similarity as TfVector::CosineSimilarity.
  const kernels::KernelOps& ops = kernels::ActiveKernelOps();
  auto covers = [&](size_t from_oldest, int64_t /*time_ms*/,
                    uint64_t /*simhash*/, AuthorId author) {
    if (thresholds_.use_content) {
      const TfVector& other = vectors_[from_oldest];
      const uint64_t dot =
          ops.sparse_dot(vector.term_hashes(), vector.term_counts(),
                         vector.size(), other.term_hashes(),
                         other.term_counts(), other.size());
      if (vector.SimilarityFromDot(dot, other) < min_cosine_similarity_) {
        return false;
      }
    }
    if (thresholds_.use_author && author != post.author &&
        (graph_ == nullptr || !graph_->IsNeighbor(post.author, author))) {
      return false;
    }
    return true;
  };
  const CoverageScanResult scan = ScanCovered(bin_, cutoff, covers);
  stats_.comparisons += scan.comparisons;
  stats_.pruned += scan.pruned;
  if (scan.covered) {
    stats_.UpdatePeak(ApproxBytes());
    return false;
  }

  bin_.Push(BinEntry{post.time_ms, /*simhash=*/0, post.author, post.id});
  vectors_bytes_ += VectorBytes(vector);
  vectors_.push_back(std::move(vector));
  ++stats_.insertions;
  ++stats_.posts_out;
  stats_.UpdatePeak(ApproxBytes());
  return true;
}

size_t CosineUniBinDiversifier::ApproxBytes() const {
  return bin_.ApproxBytes() + vectors_bytes_;
}

void CosineUniBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  bin_.Save(&payload);
  for (const TfVector& vector : vectors_) vector.Save(&payload);
  internal::WrapChecksummed(payload, out);
}

bool CosineUniBinDiversifier::LoadState(BinaryReader& in) {
  bin_ = PostBin{};
  vectors_.clear();
  vectors_bytes_ = 0;
  std::string payload;
  if (internal::UnwrapChecksummed(in, &payload)) {
    BinaryReader state(payload);
    if (LoadStatePayload(state)) return true;
  }
  // Malformed snapshot: reset to empty so the object stays usable.
  stats_ = IngestStats{};
  bin_ = PostBin{};
  vectors_.clear();
  vectors_bytes_ = 0;
  return false;
}

bool CosineUniBinDiversifier::LoadStatePayload(BinaryReader& in) {
  if (!internal::LoadStats(in, &stats_)) return false;
  if (!bin_.Load(in)) return false;
  for (size_t i = 0; i < bin_.size(); ++i) {
    TfVector vector;
    if (!vector.Load(in)) return false;
    vectors_bytes_ += VectorBytes(vector);
    vectors_.push_back(std::move(vector));
  }
  return in.AtEnd();
}

BinOccupancy CosineUniBinDiversifier::bin_occupancy() const {
  return BinOccupancy{1, bin_.size()};
}

}  // namespace firehose
