#ifndef FIREHOSE_NET_SERVER_H_
#define FIREHOSE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/multi_user.h"
#include "src/dur/wal.h"
#include "src/net/placement.h"
#include "src/net/proto.h"
#include "src/obs/debug_server.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"
#include "src/util/flat_lists.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace net {

namespace internal {
class ShardWorker;
}  // namespace internal

/// Every user and author id a client sends must be below this bound,
/// and a seal's user count at most it. The seal sizes each shard's
/// per-user timelines by the user count (40 bytes a user, so ~170 MB
/// per shard at the bound) and the author routing by the largest
/// followed author, so an id from the wire past it could exhaust memory
/// at the seal and again at every restart. A Follow or Seal frame
/// outside it is refused before it is logged, and Start refuses a WAL
/// record outside it.
inline constexpr uint64_t kServeIdBound = uint64_t{1} << 22;

/// The most shards a server runs; Start refuses a count outside
/// 1..kMaxServeShards before it binds. Each shard worker takes one of the
/// watchdog's obs::Watchdog::kMaxTasks (64) task slots, the dispatcher
/// another, and each shard records its flight spans on the ring numbered
/// by its index, out of obs::FlightRecorder::kMaxThreads (64). Past 63
/// shards both would drop silently.
inline constexpr uint32_t kMaxServeShards = 63;

/// How long the dispatcher waits in accept or read before it re-checks
/// the stop flag and republishes introspection. A connection that never
/// goes idle republishes once this long has passed since the last
/// publication, so /varz and /statusz lag a busy client by at most this.
inline constexpr int kDispatchPollMs = 100;

struct ServeOptions {
  int port = 0;              ///< 0 = bind an ephemeral port (see port())
  uint32_t num_shards = 1;   ///< 1..kMaxServeShards
  /// The bin layout of each shard's one set of bins, which all of the
  /// shard's components share (SharedBinTable). Every layout serves the
  /// S_* engines' timelines.
  Algorithm algorithm = Algorithm::kCliqueBin;
  /// λc and λt. λa is baked into the author graph, and both coverage
  /// dimensions are always on.
  int lambda_c = 18;
  int64_t lambda_t_ms = 30 * 60 * 1000;

  /// Root of the durable state; empty disables durability. The one
  /// server WAL lives in `<data_dir>/wal`. It records no placement, so a
  /// restart may use any `num_shards`.
  std::string data_dir;
  std::string wal_sync = "none";  ///< "none" | "always" | "every=N"

  /// Optional introspection hooks. `debug` receives periodic /varz +
  /// /statusz publications from the dispatcher, and its health problem
  /// once a WAL write was refused; `watchdog` gets one task per shard
  /// worker plus the dispatcher (its owner runs Poll, and a DebugServer
  /// given it names the tripped tasks in /healthz); `flight` records
  /// offer spans.
  obs::DebugState* debug = nullptr;
  obs::Watchdog* watchdog = nullptr;
  obs::FlightRecorder* flight = nullptr;

  /// Crash-test hook (mirrors FIREHOSE_CRASH_AFTER in firehose_serve):
  /// raise SIGKILL after this many kPost messages received; 0 = off.
  uint64_t crash_after_posts = 0;
};

/// Monitoring snapshot; counters are cumulative since Start (recovered
/// WAL replays count toward `posts_ingested` and `deliveries`). Without a
/// data dir, a Start after Stop serves on from the state it had, counters
/// included.
struct ServeStats {
  uint64_t connections = 0;
  uint64_t posts_received = 0;  ///< kPost frames seen by the dispatcher
  uint64_t posts_ingested = 0;  ///< posts logged and routed, once each
  uint64_t duplicates = 0;      ///< resends at or below the watermark
  uint64_t deliveries = 0;      ///< (post, user) timeline appends
  uint64_t comparisons = 0;     ///< bin entries the shards' tables tested
  uint64_t polls = 0;
  uint64_t malformed = 0;       ///< poisoned connections
  uint64_t wal_failures = 0;    ///< writes refused because the WAL failed
};

/// The networked serving layer (DESIGN.md §4i): an ingest/delivery
/// service whose per-user timelines equal the S_* shared-component
/// engine's. Each shard keeps one set of bins for all of its components
/// (SharedBinTable) and decides each post once for them.
///
/// Threading: one dispatcher thread owns the listening socket and serves
/// one connection at a time (the protocol is client-driven and the
/// loadgen is a single client; this is a reproduction testbed, not a
/// production frontend). The dispatcher appends each routed post to its
/// shard's inbox, a vector of at most 4,096 posts behind the inbox's own
/// mutex, and waits while it is full; each shard worker takes its whole
/// inbox at once, decides that batch in order, and exclusively owns its
/// SharedBinTable — the same thread-confinement contract as
/// RunShardedSUser, extended to long-lived workers. Workers only decide.
/// A worker's timelines, each the LEB128 gaps between a user's ascending
/// post ids, and its counters sit behind a second mutex: the worker
/// updates them under it once per post. The dispatcher answers a poll
/// itself by waiting until every shard decided the posts routed before
/// the poll, then merging the shards' lists under their locks. Flush
/// syncs the WAL, then makes the same wait. Stop joins the dispatcher,
/// then sets each worker's stop flag; a worker ends once it saw the flag
/// and then found its inbox empty, so it decides every routed post
/// first.
///
/// Placement: shared components (never single authors) are placed on
/// shards by consistent hashing of their sorted author set, so a
/// component's full similarity neighborhood is always shard-local and
/// per-user timelines equal the in-process engine's exactly.
///
/// Durability: the dispatcher alone appends to one server WAL, in the
/// order it accepts them: follows, the seal, then every post that some
/// shard routes, each logged before any shard sees it. A post id at or
/// below the highest logged id is a client resend and is only counted.
/// A failed append or sync fails closed: the write is refused with an
/// Error frame, the connection closes and nothing reaches a shard.
/// Posts are synced as `wal_sync` says; follows are not synced one by
/// one, as the seal, which is always synced, makes them durable with it.
/// Start replays the WAL once, in order: the seal rebuilds the shards
/// at the current `num_shards` and each post takes the live routing, so
/// recovery + resend is byte-identical to an uninterrupted run.
class Server {
 public:
  /// `graph` must outlive the server.
  Server(ServeOptions options, const AuthorGraph* graph);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the port, recovers durable state, then starts the shard
  /// workers and the dispatcher. False with `*error` set on a shard count
  /// outside 1..kMaxServeShards, a bind failure, an unreadable WAL or a
  /// record out of order; a failed Start has started no thread.
  [[nodiscard]] bool Start(std::string* error);

  /// Graceful stop: joins the dispatcher, lets every shard worker decide
  /// its queued posts and joins it, closes the WAL. Idempotent.
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
  /// Drops the state a previous Start built, replays `<data_dir>/wal` in
  /// order (follows, the seal, posts) into shards whose threads have not
  /// started, then opens it for appends.
  [[nodiscard]] bool Recover(std::string* error) FIREHOSE_RUNS_ON(exclusive);
  // Builds the shards from the sealed `follows` without starting their
  // threads: a single-threaded phase (recovery, or the seal before any
  // worker exists). Callers hand over follows_, which is never read again.
  void BuildShards(std::vector<std::pair<UserId, AuthorId>> follows)
      FIREHOSE_RUNS_ON(exclusive);
  std::span<const uint32_t> ShardsOf(AuthorId author) const;
  /// When a record Log appends reaches the disk: as the --wal_sync
  /// policy says (a post), at the seal's sync, which is always made (a
  /// follow, which nothing acknowledges), or at a sync now, whatever the
  /// policy (the seal, a flush).
  enum class SyncAt { kPolicy, kSeal, kNow };
  /// Appends `record` (none when empty) to the WAL and makes it durable
  /// `when` says; true without a data_dir. On failure, counts it and
  /// sends `fd` an Error: the caller closes the connection and acts on
  /// nothing.
  [[nodiscard]] bool Log(int fd, std::string_view record, SyncAt when);
  void PublishIntrospection();

  ServeOptions options_;
  const AuthorGraph* graph_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread dispatcher_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  // Pre-seal state, owned by the dispatcher after Start (and by Start
  // itself during recovery, before the dispatcher exists). The seal
  // hands follows_ to BuildShards, which frees it.
  std::vector<std::pair<UserId, AuthorId>> follows_
      FIREHOSE_THREAD_OWNED(dispatcher);
  uint64_t num_users_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;
  std::atomic<bool> sealed_{false};

  // The two steps of the last BuildShards, live or replayed: the
  // shared components, then the shards' tables (placement, bins, clique
  // covers and routing). Published as serve.seal.components_us and
  // serve.seal.tables_us.
  uint64_t seal_components_us_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;
  uint64_t seal_tables_us_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;

  // obs::RealClock() time of the last publication; kept only while
  // options_.debug is attached.
  uint64_t published_ns_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;

  // The stages of every flush (and the shutdown's): the WAL sync, the
  // wait until every shard decided, and the most posts any shard had
  // routed but not decided when it arrived.
  // Published as serve.flush.sync_us, serve.flush.drain_us and
  // serve.flush.backlog.
  obs::LogHistogram flush_sync_us_ FIREHOSE_THREAD_OWNED(dispatcher);
  obs::LogHistogram flush_drain_us_ FIREHOSE_THREAD_OWNED(dispatcher);
  obs::LogHistogram flush_backlog_ FIREHOSE_THREAD_OWNED(dispatcher);

  // Post-seal routing, author -> shards whose table routes the author
  // (built from the placed components at seal/recovery, read-only after).
  FlatLists<uint32_t> author_shards_;
  std::vector<std::unique_ptr<internal::ShardWorker>> shards_;

  // The server WAL, and the highest post id it holds (-1 = none yet).
  std::unique_ptr<dur::SyncPolicy> wal_sync_;
  std::unique_ptr<dur::WalWriter> wal_ FIREHOSE_THREAD_OWNED(dispatcher);
  // The WAL's fsyncs since construction, rotations included; published
  // as serve.wal_fsyncs.
  obs::Counter wal_fsyncs_ FIREHOSE_THREAD_OWNED(dispatcher);
  int64_t watermark_ FIREHOSE_THREAD_OWNED(dispatcher) = -1;

  // Dispatcher-side counters (atomics so stats() works from any thread).
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> posts_received_{0};
  std::atomic<uint64_t> posts_ingested_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> wal_failures_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> malformed_{0};
};

/// Server-WAL record codec (exposed for tests): a type byte (1 follow,
/// 2 seal, 3 post), then the record's fields.
std::string EncodeFollowRecord(UserId user, AuthorId author);
std::string EncodeSealRecord(uint64_t num_users);
/// 3, then dur::EncodePostRecord(post).
std::string EncodePostRecord(const Post& post);

}  // namespace net
}  // namespace firehose

#endif  // FIREHOSE_NET_SERVER_H_
