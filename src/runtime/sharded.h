#ifndef FIREHOSE_RUNTIME_SHARDED_H_
#define FIREHOSE_RUNTIME_SHARDED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/multi_user.h"
#include "src/stream/post.h"

namespace firehose {

/// Result of a sharded M-SPSD run.
struct ShardedRunResult {
  double wall_ms = 0.0;
  uint64_t posts_in = 0;       ///< offers summed over all shards
  uint64_t deliveries = 0;     ///< (post, user) deliveries
  int num_shards = 0;
  /// Ingest counters merged over shards in shard order. Shards run
  /// concurrently, so `stats.sum_peak_bytes` (not the max-of-peaks in
  /// `stats.peak_bytes`) is the engine-wide resident high-water bound.
  IngestStats stats;
};

/// Parallel S_* engine execution: the distinct connected components of
/// the users' subscription graphs interact with *no one* — a post's fate
/// in one component never depends on another component's bins — so the
/// per-component diversifiers shard across threads with exact,
/// deterministic equivalence to the sequential S_* engine.
///
/// Each shard holds a ComponentTable over a subset of the distinct
/// components (round-robin by component discovery order) and scans the
/// shared read-only stream, offering each post to its own components
/// only. Deliveries are merged and returned sorted by (post, user), which
/// equals the sequential engine's delivery multiset.
///
/// `num_shards <= 1` degenerates to a sequential pass (no threads).
ShardedRunResult RunShardedSUser(
    Algorithm algorithm, const DiversityThresholds& thresholds,
    const AuthorGraph& graph, const std::vector<User>& users,
    const PostStream& stream, int num_shards,
    std::vector<std::pair<PostId, UserId>>* deliveries);

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_SHARDED_H_
