#ifndef FIREHOSE_NET_SERVER_H_
#define FIREHOSE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/multi_user.h"
#include "src/dur/wal.h"
#include "src/net/placement.h"
#include "src/net/proto.h"
#include "src/obs/debug_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/watchdog.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace net {

namespace internal {
class ShardWorker;
}  // namespace internal

struct ServeOptions {
  int port = 0;              ///< 0 = bind an ephemeral port (see port())
  uint32_t num_shards = 1;
  Algorithm algorithm = Algorithm::kCliqueBin;
  DiversityThresholds thresholds;

  /// Root of the durable state; empty disables durability. Layout:
  /// `<data_dir>/control` holds the follow/seal WAL, `<data_dir>/shard-N`
  /// one post WAL per shard, so each shard recovers independently.
  std::string data_dir;
  std::string wal_sync = "none";  ///< "none" | "always" | "every=N"

  /// Optional introspection hooks. `debug` receives periodic /varz +
  /// /statusz publications from the dispatcher; `watchdog` gets one task
  /// per shard worker plus the dispatcher; `flight` records offer spans.
  obs::DebugState* debug = nullptr;
  obs::Watchdog* watchdog = nullptr;
  obs::FlightRecorder* flight = nullptr;

  /// Crash-test hook (mirrors FIREHOSE_CRASH_AFTER in firehose_serve):
  /// raise SIGKILL after this many kPost messages received; 0 = off.
  uint64_t crash_after_posts = 0;
};

/// Monitoring snapshot; counters are cumulative since Start (recovered
/// WAL replays count toward `posts_ingested` and `deliveries`).
struct ServeStats {
  uint64_t connections = 0;
  uint64_t posts_received = 0;  ///< kPost frames seen by the dispatcher
  uint64_t posts_ingested = 0;  ///< shard ingests (fan-out counts per shard)
  uint64_t duplicates = 0;      ///< resends skipped by the shard watermark
  uint64_t deliveries = 0;      ///< (post, user) timeline appends
  uint64_t polls = 0;
  uint64_t malformed = 0;       ///< poisoned connections
};

/// The networked serving layer (DESIGN.md §4i): an ingest/delivery
/// service wrapping the S_* shared-component engine of the in-process
/// sharded pipeline.
///
/// Threading: one dispatcher thread owns the listening socket and serves
/// one connection at a time (the protocol is client-driven and the
/// loadgen is a single client; this is a reproduction testbed, not a
/// production frontend). The dispatcher is the single producer of every
/// shard's SpscQueue<ShardCmd>; each shard worker thread is the single
/// consumer of its own queue and exclusively owns its ComponentTable and
/// WAL — the same thread-confinement contract as RunShardedSUser,
/// extended to long-lived workers. A worker's timelines sit behind its
/// own mutex: the worker appends under it once per post, and the
/// dispatcher answers a poll itself, without a queued command, by
/// waiting until every shard finished the commands routed before the
/// poll and then merging the shards' lists under their locks. Flush
/// stays a barrier through the queues, since each worker syncs its WAL.
///
/// Placement: shared components (never single authors) are placed on
/// shards by consistent hashing of their sorted author set, so a
/// component's full similarity neighborhood is always shard-local and
/// per-user timelines equal the in-process engine's exactly.
///
/// Durability: follow/seal events go to a control WAL, ingested posts to
/// per-shard WALs (appended before the diversifier decides, the
/// src/dur discipline). After a crash the server rebuilds components
/// from the control WAL and replays each shard WAL independently;
/// clients resend the stream from the start and the per-shard post-id
/// watermark drops everything already durable, which makes recovery +
/// resend byte-identical to an uninterrupted run.
class Server {
 public:
  /// `graph` must outlive the server.
  Server(ServeOptions options, const AuthorGraph* graph);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recovers durable state, binds the port, starts the dispatcher.
  /// False with `*error` set on unrecoverable state or bind failure.
  [[nodiscard]] bool Start(std::string* error);

  /// Graceful stop: joins the dispatcher, drains and joins every shard
  /// worker, closes WALs. Idempotent.
  void Stop();

  /// Bound port after a successful Start.
  int port() const { return port_; }

  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  /// True once a client sent kShutdown; the owner should call Stop().
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  ServeStats stats() const;

 private:
  void Dispatch() FIREHOSE_RUNS_ON(dispatcher);
  void HandleConnection(int fd);
  /// True when the message keeps the connection alive.
  [[nodiscard]] bool HandleMessage(int fd, const NetMessage& message);
  // Runs on the dispatcher thread at seal time, but before any worker
  // exists — a single-threaded phase, hence the `exclusive` role.
  [[nodiscard]] bool BuildShards(std::string* error) FIREHOSE_RUNS_ON(exclusive);
  void RouteToShards(const NetMessage& message);
  void PublishIntrospection();
  [[nodiscard]] bool AppendControlRecord(const std::string& payload,
                                         bool sync);

  ServeOptions options_;
  const AuthorGraph* graph_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread dispatcher_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  // Pre-seal state, owned by the dispatcher after Start (and by Start
  // itself during recovery, before the dispatcher exists).
  std::vector<std::pair<UserId, AuthorId>> follows_
      FIREHOSE_THREAD_OWNED(dispatcher);
  uint64_t num_users_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;
  std::atomic<bool> sealed_{false};

  // Post-seal routing, author -> shards whose ComponentTable routes the
  // author (read off the tables at seal/recovery, read-only after).
  std::vector<std::vector<uint32_t>> author_shards_;
  std::vector<std::unique_ptr<internal::ShardWorker>> shards_;

  // Control WAL (follow/seal events).
  std::unique_ptr<dur::SyncPolicy> control_sync_;
  std::unique_ptr<dur::WalWriter> control_wal_;

  // Dispatcher-side counters (atomics so stats() works from any thread).
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> posts_received_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> malformed_{0};
};

/// Control-WAL record codec (exposed for tests).
std::string EncodeFollowRecord(UserId user, AuthorId author);
std::string EncodeSealRecord(uint64_t num_users);

}  // namespace net
}  // namespace firehose

#endif  // FIREHOSE_NET_SERVER_H_
