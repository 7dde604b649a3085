#ifndef FIREHOSE_CORE_CLIQUE_BIN_H_
#define FIREHOSE_CORE_CLIQUE_BIN_H_

#include <vector>

#include "src/author/clique_cover.h"
#include "src/core/diversifier.h"

namespace firehose {

/// CliqueBin (paper §4.3): a greedy clique edge cover of the author graph
/// assigns one bin per clique. A post by author a is checked against (and,
/// when admitted, inserted into) the bins of exactly the cliques containing
/// a — c copies per post instead of NeighborBin's d+1, at the price of
/// possibly re-comparing the same post in several clique bins.
///
/// The middle ground of Table 3: moderate RAM, moderate comparisons.
/// Best for high-throughput streams with moderate λt (paper Table 4).
class CliqueBinDiversifier final : public Diversifier {
 public:
  /// `cover` must be non-null and outlive the diversifier; it is the
  /// offline-precomputed Author2Cliques structure of §4.3.
  CliqueBinDiversifier(const DiversityThresholds& thresholds,
                       const CliqueCover* cover);

  bool Offer(const Post& post) override;
  const IngestStats& stats() const override { return stats_; }
  size_t ApproxBytes() const override;
  BinOccupancy bin_occupancy() const override;
  std::string_view name() const override { return "CliqueBin"; }
  void SaveState(BinaryWriter* out) const override;
  bool LoadState(BinaryReader& in) override;

 private:
  bool LoadStatePayload(BinaryReader& in);

  const DiversityThresholds thresholds_;
  const CliqueCover* cover_;  // not owned
  std::vector<PostBin> bins_;  // one per clique, indexed by CliqueId
  size_t bins_bytes_ = 0;  // incrementally tracked Σ bin capacities
  IngestStats stats_;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_CLIQUE_BIN_H_
