#include "src/core/engine.h"

#include <utility>

#include "src/core/clique_bin.h"
#include "src/core/neighbor_bin.h"
#include "src/core/unibin.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace firehose {

namespace {

/// CliqueBin bundled with an owned cover, for callers that did not
/// precompute one.
class OwningCliqueBin final : public Diversifier {
 public:
  OwningCliqueBin(const DiversityThresholds& thresholds, CliqueCover cover)
      : cover_(std::move(cover)), impl_(thresholds, &cover_) {}

  bool Offer(const Post& post) override { return impl_.Offer(post); }
  const IngestStats& stats() const override { return impl_.stats(); }
  size_t ApproxBytes() const override { return impl_.ApproxBytes(); }
  BinOccupancy bin_occupancy() const override { return impl_.bin_occupancy(); }
  std::string_view name() const override { return impl_.name(); }
  void SaveState(BinaryWriter* out) const override { impl_.SaveState(out); }
  bool LoadState(BinaryReader& in) override { return impl_.LoadState(in); }

 private:
  CliqueCover cover_;
  CliqueBinDiversifier impl_;
};

}  // namespace

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kUniBin:
      return "UniBin";
    case Algorithm::kNeighborBin:
      return "NeighborBin";
    case Algorithm::kCliqueBin:
      return "CliqueBin";
  }
  return "?";
}

bool ParseAlgorithm(std::string_view name, Algorithm* algorithm) {
  if (name == "unibin") {
    *algorithm = Algorithm::kUniBin;
  } else if (name == "neighborbin") {
    *algorithm = Algorithm::kNeighborBin;
  } else if (name == "cliquebin") {
    *algorithm = Algorithm::kCliqueBin;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Diversifier> MakeDiversifier(Algorithm algorithm,
                                             const DiversityThresholds& t,
                                             const AuthorGraph* graph,
                                             const CliqueCover* cover) {
  switch (algorithm) {
    case Algorithm::kUniBin:
      return std::make_unique<UniBinDiversifier>(t, graph);
    case Algorithm::kNeighborBin:
      return std::make_unique<NeighborBinDiversifier>(t, graph);
    case Algorithm::kCliqueBin:
      if (cover != nullptr) {
        return std::make_unique<CliqueBinDiversifier>(t, cover);
      }
      {
        obs::TraceScope scope(obs::GlobalTrace(), "CliqueCover::Greedy",
                              "cover");
        return std::make_unique<OwningCliqueBin>(t,
                                                 CliqueCover::Greedy(*graph));
      }
  }
  return nullptr;
}

void ExportDiversifierMetrics(const Diversifier& diversifier,
                              obs::MetricsRegistry* registry) {
  const IngestStats& stats = diversifier.stats();
  registry->GetCounter("engine.posts_in")->Add(stats.posts_in);
  registry->GetCounter("engine.posts_out")->Add(stats.posts_out);
  registry->GetCounter("engine.posts_pruned")
      ->Add(stats.posts_in - stats.posts_out);
  registry->GetCounter("engine.comparisons")->Add(stats.comparisons);
  registry->GetCounter("engine.candidates_pruned")->Add(stats.pruned);
  registry->GetCounter("engine.insertions")->Add(stats.insertions);
  registry->GetCounter("engine.evictions")->Add(stats.evictions);
  const BinOccupancy occupancy = diversifier.bin_occupancy();
  registry->GetGauge("engine.bins")
      ->Set(static_cast<int64_t>(occupancy.num_bins));
  registry->GetGauge("engine.binned_posts")
      ->Set(static_cast<int64_t>(occupancy.binned_posts));
  // Set the peak first so the gauge's high-water records it even though
  // the current residency is lower.
  obs::Gauge* resident = registry->GetGauge("engine.resident_bytes");
  resident->Set(static_cast<int64_t>(stats.peak_bytes));
  resident->Set(static_cast<int64_t>(diversifier.ApproxBytes()));
}

}  // namespace firehose
