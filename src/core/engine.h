#ifndef FIREHOSE_CORE_ENGINE_H_
#define FIREHOSE_CORE_ENGINE_H_

#include <memory>
#include <string_view>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"
#include "src/core/diversifier.h"
#include "src/obs/metrics.h"

namespace firehose {

/// The three SPSD algorithms of §4.
enum class Algorithm {
  kUniBin,
  kNeighborBin,
  kCliqueBin,
};

/// Printable algorithm name.
std::string_view AlgorithmName(Algorithm algorithm);

/// Parses the tools' `--algorithm` spelling: "unibin", "neighborbin" or
/// "cliquebin". False, leaving `*algorithm` alone, for anything else.
[[nodiscard]] bool ParseAlgorithm(std::string_view name, Algorithm* algorithm);

/// All algorithms, for sweep loops.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kUniBin, Algorithm::kNeighborBin, Algorithm::kCliqueBin};

/// Creates a diversifier.
///
/// Preconditions: every author that will appear in the offered stream is a
/// vertex of `graph` (otherwise CliqueBin could not store its posts and the
/// algorithms would diverge). For kCliqueBin a `cover` built from the same
/// graph may be supplied to share the offline precomputation; when null,
/// one is computed here and owned by the returned diversifier.
///
/// `graph` (and `cover` when given) must outlive the returned object.
std::unique_ptr<Diversifier> MakeDiversifier(Algorithm algorithm,
                                             const DiversityThresholds& t,
                                             const AuthorGraph* graph,
                                             const CliqueCover* cover = nullptr);

/// Records a diversifier's counters and bin occupancy into `registry`
/// under the `engine.` prefix (posts_in/out/pruned, comparisons,
/// insertions, evictions, bins, binned_posts, resident_bytes with the
/// peak as its high-water). Call once at end of run, before exporting.
void ExportDiversifierMetrics(const Diversifier& diversifier,
                              obs::MetricsRegistry* registry);

}  // namespace firehose

#endif  // FIREHOSE_CORE_ENGINE_H_
