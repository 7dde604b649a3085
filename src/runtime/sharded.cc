#include "src/runtime/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/core/component_table.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"

namespace firehose {

namespace {

/// One shard's share of the work: a table over a subset of components,
/// scanned over the whole stream.
struct Shard {
  ComponentTable table;
  // Written only by this shard's worker thread between spawn and join;
  // the main thread merges after the join. No locks by design — the
  // annotations record the confinement contract, enforced statically by
  // the thread-confinement pass (and dynamically by the tsan preset).
  std::vector<std::pair<PostId, UserId>> deliveries
      FIREHOSE_THREAD_OWNED(shard_worker);
  uint64_t posts_in FIREHOSE_THREAD_OWNED(shard_worker) = 0;

  void Run(const PostStream& stream) FIREHOSE_RUNS_ON(shard_worker) {
    for (const Post& post : stream) {
      for (size_t index : table.ComponentsOf(post.author)) {
        ComponentTable::Component& c = table.component(index);
        ++posts_in;
        if (c.diversifier().Offer(post)) {
          for (UserId user : c.users) deliveries.emplace_back(post.id, user);
        }
      }
    }
  }
};

}  // namespace

ShardedRunResult RunShardedSUser(
    Algorithm algorithm, const DiversityThresholds& thresholds,
    const AuthorGraph& graph, const std::vector<User>& users,
    const PostStream& stream, int num_shards,
    std::vector<std::pair<PostId, UserId>>* deliveries) {
  ShardedRunResult result;
  result.num_shards = std::max(num_shards, 1);

  // Partition the distinct components round-robin across shards.
  std::vector<Shard> shards(static_cast<size_t>(result.num_shards));
  {
    std::vector<std::vector<SharedComponent>> parts(shards.size());
    size_t next = 0;
    for (SharedComponent& shared :
         ComputeSharedComponents(thresholds, graph, users)) {
      parts[next++ % parts.size()].push_back(std::move(shared));
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      shards[s].table = ComponentTable(algorithm, graph, std::move(parts[s]));
    }
  }

  // Components never interact, so shards run lock-free over the shared
  // read-only stream and their outputs merge into exactly the sequential
  // S_* deliveries.
  WallTimer timer;
  if (shards.size() == 1) {
    shards[0].Run(stream);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shards.size());
    for (Shard& shard : shards) {
      workers.emplace_back([&shard, &stream] { shard.Run(stream); });
    }
    for (std::thread& worker : workers) worker.join();
  }
  result.wall_ms = timer.ElapsedMillis();

  // Merge in shard order, so repeated runs with the same shard count
  // return identical counters.
  std::vector<std::pair<PostId, UserId>> merged;
  for (Shard& shard : shards) {
    result.posts_in += shard.posts_in;
    result.stats.MergeFrom(shard.table.MergedStats());
    merged.insert(merged.end(), shard.deliveries.begin(),
                  shard.deliveries.end());
  }
  std::sort(merged.begin(), merged.end());
  result.deliveries = merged.size();
  if (deliveries != nullptr) *deliveries = std::move(merged);
  return result;
}

}  // namespace firehose
