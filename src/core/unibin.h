#ifndef FIREHOSE_CORE_UNIBIN_H_
#define FIREHOSE_CORE_UNIBIN_H_

#include "src/author/similarity_graph.h"
#include "src/core/diversifier.h"

namespace firehose {

/// UniBin (paper §4.1): one time-windowed bin holds every post of Z from
/// the last λt. Each new post is compared, newest first, against every
/// binned post via the batched coverage kernel; the author-similarity
/// check consults the author graph.
///
/// Lowest RAM of the three algorithms, highest comparison count — the
/// right choice for low-throughput streams, dense author graphs, small λt
/// or RAM-constrained deployments (paper Table 4).
///
/// The graph must outlive the diversifier.
class UniBinDiversifier final : public Diversifier {
 public:
  UniBinDiversifier(const DiversityThresholds& thresholds,
                    const AuthorGraph* graph);

  bool Offer(const Post& post) override;
  const IngestStats& stats() const override { return stats_; }
  size_t ApproxBytes() const override;
  BinOccupancy bin_occupancy() const override;
  std::string_view name() const override { return "UniBin"; }
  void SaveState(BinaryWriter* out) const override;
  bool LoadState(BinaryReader& in) override;

 private:
  const DiversityThresholds thresholds_;
  const AuthorGraph* graph_;  // not owned
  PostBin bin_;
  IngestStats stats_;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_UNIBIN_H_
