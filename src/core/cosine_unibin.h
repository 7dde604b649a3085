#ifndef FIREHOSE_CORE_COSINE_UNIBIN_H_
#define FIREHOSE_CORE_COSINE_UNIBIN_H_

#include <deque>

#include "src/author/similarity_graph.h"
#include "src/core/diversifier.h"
#include "src/text/tf_vector.h"

namespace firehose {

/// The content-distance baseline the paper rejects in §3: UniBin with
/// exact term-frequency cosine similarity instead of SimHash. Posts whose
/// cosine similarity is >= `min_cosine_similarity` (paper: 0.7) are
/// content-similar.
///
/// Semantically this matches SimHash-based UniBin at the matched
/// thresholds (both achieve P=0.96/R=0.95 in the paper's study); the
/// point of implementing it is the cost: each comparison is a sparse
/// vector dot product over the stored *full vectors*, so both CPU per
/// comparison and bytes per stored post are an order of magnitude worse.
/// The abl_cosine_baseline bench quantifies that.
///
/// Storage is a PostBin (time/author/post-id lanes; the simhash lane is
/// zero — this baseline has no fingerprints) plus a parallel deque of term
/// vectors addressed by the bin's logical from-oldest index, so the λt
/// boundary search and scan bookkeeping run through the same coverage
/// kernel as the SimHash bins.
class CosineUniBinDiversifier final : public Diversifier {
 public:
  /// `min_cosine_similarity` plays the role of λc. Time and author
  /// dimensions behave exactly as in UniBin. `graph` may be null.
  CosineUniBinDiversifier(const DiversityThresholds& thresholds,
                          double min_cosine_similarity,
                          const AuthorGraph* graph);

  /// Offer() tokenizes and vectorizes `post.text` (the `simhash` field is
  /// ignored — this baseline has no fingerprints).
  bool Offer(const Post& post) override;
  const IngestStats& stats() const override { return stats_; }
  size_t ApproxBytes() const override;
  BinOccupancy bin_occupancy() const override;
  std::string_view name() const override { return "CosineUniBin"; }
  void SaveState(BinaryWriter* out) const override;
  bool LoadState(BinaryReader& in) override;

 private:
  bool LoadStatePayload(BinaryReader& in);
  static size_t VectorBytes(const TfVector& vector) {
    return sizeof(TfVector) + vector.size() * 12;  // hash + count approx
  }

  const DiversityThresholds thresholds_;
  const double min_cosine_similarity_;
  const AuthorGraph* graph_;  // not owned
  PostBin bin_;               // simhash lane all-zero
  std::deque<TfVector> vectors_;  // parallel to bin_, from-oldest order
  size_t vectors_bytes_ = 0;      // incrementally tracked Σ VectorBytes
  IngestStats stats_;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_COSINE_UNIBIN_H_
