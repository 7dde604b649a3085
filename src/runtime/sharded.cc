#include "src/runtime/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/core/component_table.h"
#include "src/obs/clock.h"
#include "src/util/thread_annotations.h"
#include "src/util/timer.h"

namespace firehose {

namespace {

/// One shard's share of the work: a table over a subset of components,
/// scanned over the whole stream. All observability state is
/// shard-private; the main thread merges it after the join.
struct Shard {
  ComponentTable table;
  // Everything below is written only by this shard's worker thread
  // between spawn and join; the main thread merges after the join. No
  // locks by design — the annotations record the confinement contract,
  // enforced statically by the thread-confinement pass (and dynamically
  // by the tsan preset).
  std::vector<std::pair<PostId, UserId>> deliveries
      FIREHOSE_THREAD_OWNED(shard_worker);
  uint64_t posts_in FIREHOSE_THREAD_OWNED(shard_worker) = 0;
  obs::MetricsRegistry metrics
      FIREHOSE_THREAD_OWNED(shard_worker);  // merged in shard order
  obs::LogHistogram latency FIREHOSE_THREAD_OWNED(shard_worker);
  IngestStats stats
      FIREHOSE_THREAD_OWNED(shard_worker);  // merged after Run

  void Run(const PostStream& stream, const obs::Clock& clock,
           const PipelineObs& o, uint32_t shard_index)
      FIREHOSE_RUNS_ON(shard_worker) {
    obs::TraceScope span(o.trace, "Shard.scan", "shard", shard_index);
    // The shard's "queue" is the undrained suffix of the shared stream:
    // depth > 0 with a frozen scan position is exactly a wedged worker.
    const int watchdog_task =
        o.watchdog != nullptr ? o.watchdog->RegisterTask("shard") : -1;
    size_t scanned = 0;
    for (const Post& post : stream) {
      ++scanned;
      if (watchdog_task >= 0) {
        o.watchdog->ReportProgress(watchdog_task, scanned);
        o.watchdog->SetQueueDepth(
            watchdog_task, static_cast<int64_t>(stream.size() - scanned));
      }
      for (size_t index : table.ComponentsOf(post.author)) {
        ComponentTable::Component& c = table.component(index);
        ++posts_in;
        const uint64_t start = clock.NowNanos();
        const bool admitted = c.diversifier().Offer(post);
        const uint64_t end = clock.NowNanos();
        latency.Record(end - start);
        if (o.flight != nullptr) {
          o.flight->RecordComplete(shard_index, "offer", "shard", start, end);
        }
        if (admitted) {
          for (UserId user : c.users) deliveries.emplace_back(post.id, user);
        }
      }
    }
    if (watchdog_task >= 0) o.watchdog->SetQueueDepth(watchdog_task, 0);
    stats = table.MergedStats();
    metrics.GetCounter("sharded.posts_in")->Add(posts_in);
    metrics.GetCounter("sharded.comparisons")->Add(stats.comparisons);
    metrics.GetCounter("sharded.candidates_pruned")->Add(stats.pruned);
    metrics.GetCounter("sharded.insertions")->Add(stats.insertions);
    metrics.GetCounter("sharded.evictions")->Add(stats.evictions);
    metrics.GetHistogram("sharded.decision_latency_ns", /*timing=*/true)
        ->MergeFrom(latency);
  }
};

}  // namespace

ShardedRunResult RunShardedSUser(
    Algorithm algorithm, const DiversityThresholds& thresholds,
    const AuthorGraph& graph, const std::vector<User>& users,
    const PostStream& stream, int num_shards,
    std::vector<std::pair<PostId, UserId>>* deliveries,
    const PipelineObs& o) {
  ShardedRunResult result;
  result.num_shards = std::max(num_shards, 1);
  const obs::Clock& clock =
      o.clock != nullptr ? *o.clock : *obs::RealClock();

  // Partition the distinct components round-robin across shards.
  std::vector<Shard> shards(static_cast<size_t>(result.num_shards));
  {
    std::vector<std::vector<SharedComponent>> parts(shards.size());
    size_t next = 0;
    for (SharedComponent& shared :
         ComputeSharedComponents(thresholds, graph, users)) {
      parts[next++ % parts.size()].push_back(std::move(shared));
    }
    for (uint32_t s = 0; s < shards.size(); ++s) {
      obs::TraceScope build_span(o.trace, "Shard.build", "shard", s);
      shards[s].table = ComponentTable(algorithm, graph, std::move(parts[s]));
    }
  }

  // Components never interact, so shards run lock-free over the shared
  // read-only stream and their outputs merge into exactly the sequential
  // S_* deliveries.
  WallTimer timer;
  if (shards.size() == 1) {
    shards[0].Run(stream, clock, o, 0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shards.size());
    for (uint32_t s = 0; s < shards.size(); ++s) {
      Shard& shard = shards[s];
      workers.emplace_back([&shard, &stream, &clock, &o, s] {
        shard.Run(stream, clock, o, s);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  result.wall_ms = timer.ElapsedMillis();

  // Merge shard-private observability state in shard order, so repeated
  // runs with the same shard count export identical counters.
  obs::LogHistogram merged_latency;
  std::vector<std::pair<PostId, UserId>> merged;
  result.shard_stats.reserve(shards.size());
  for (Shard& shard : shards) {
    result.posts_in += shard.posts_in;
    result.stats.MergeFrom(shard.stats);
    result.shard_stats.push_back(shard.stats);
    merged_latency.MergeFrom(shard.latency);
    if (o.metrics != nullptr) o.metrics->MergeFrom(shard.metrics);
    merged.insert(merged.end(), shard.deliveries.begin(),
                  shard.deliveries.end());
  }
  result.decision_latency = merged_latency.Summarize();
  std::sort(merged.begin(), merged.end());
  result.deliveries = merged.size();
  if (o.metrics != nullptr) {
    o.metrics->GetCounter("sharded.deliveries")->Add(result.deliveries);
    o.metrics->GetGauge("sharded.num_shards")
        ->Set(static_cast<int64_t>(result.num_shards));
  }
  if (deliveries != nullptr) *deliveries = std::move(merged);
  return result;
}

}  // namespace firehose
