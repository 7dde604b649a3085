#ifndef FIREHOSE_CORE_NEIGHBOR_BIN_H_
#define FIREHOSE_CORE_NEIGHBOR_BIN_H_

#include <unordered_map>

#include "src/author/similarity_graph.h"
#include "src/core/diversifier.h"

namespace firehose {

/// NeighborBin (paper §4.2): one bin per author, holding the Z-posts of
/// that author *and of her neighbors* in the author similarity graph. A
/// new post by author a is checked only against bin(a) — exactly the set
/// of posts that could possibly cover it — and, when admitted, is inserted
/// into bin(a) and the bin of every neighbor of a.
///
/// Fewest comparisons, most RAM (d+1 copies per post). Best for
/// high-throughput streams over sparse author graphs with large λt
/// (paper Table 4).
class NeighborBinDiversifier final : public Diversifier {
 public:
  /// `graph` must be non-null and outlive the diversifier.
  NeighborBinDiversifier(const DiversityThresholds& thresholds,
                         const AuthorGraph* graph);

  bool Offer(const Post& post) override;
  const IngestStats& stats() const override { return stats_; }
  size_t ApproxBytes() const override;
  BinOccupancy bin_occupancy() const override;
  std::string_view name() const override { return "NeighborBin"; }
  void SaveState(BinaryWriter* out) const override;
  bool LoadState(BinaryReader& in) override;

 private:
  PostBin& BinOf(AuthorId author);
  bool LoadStatePayload(BinaryReader& in);

  const DiversityThresholds thresholds_;
  const AuthorGraph* graph_;  // not owned
  std::unordered_map<AuthorId, PostBin> bins_;
  size_t bins_bytes_ = 0;  // incrementally tracked Σ bin capacities
  IngestStats stats_;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_NEIGHBOR_BIN_H_
