#include "src/net/server.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <csignal>
#include <mutex>
#include <span>

#include "src/core/kernels/dispatch.h"

#include "src/core/shared_bins.h"
#include "src/dur/durable.h"
#include "src/io/socket.h"
#include "src/obs/clock.h"
#include "src/obs/export.h"
#include "src/util/binary.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace net {

namespace {

constexpr uint8_t kRecordFollow = 1;
constexpr uint8_t kRecordSeal = 2;
constexpr uint8_t kRecordPost = 3;

/// The most routed posts a shard's inbox holds; the dispatcher waits
/// while it is full.
constexpr size_t kShardInboxBound = 4096;

/// Frees `*v`'s block now; clear() would keep its capacity.
template <typename T>
void FreeNow(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

}  // namespace

// ShardWorker is declared in the header, so its helpers live in
// internal too: giving an external-linkage class members of
// internal-linkage types trips GCC's -Wsubobject-linkage under the werror
// preset.
namespace internal {

/// One user's timeline on one shard, stored as the unsigned LEB128 gaps
/// between its post ids, the first gap taken from 0. The dispatcher logs
/// and routes posts in strictly ascending id order, so every later gap is
/// at least 1, and a gap below 2^7 takes one byte and one below 2^14 two,
/// where a plain id takes four. A gap list has no random access, so a
/// reader decodes it from the front (TimelineCursor).
class Timeline {
 public:
  /// Adds `id`, which exceeds every id already held; returns the bytes
  /// its gap took.
  size_t Push(PostId id) {
    const size_t before = gaps_.size();
    gaps_.PutVarint(id - last_);
    last_ = id;
    return gaps_.size() - before;
  }

  std::string_view gaps() const { return gaps_.buffer(); }

 private:
  BinaryWriter gaps_;
  PostId last_ = 0;
};

/// Decodes a Timeline's gaps from the front, one ascending id at a time.
class TimelineCursor {
 public:
  explicit TimelineCursor(std::string_view gaps) : gaps_(gaps) { Advance(); }

  bool done() const { return done_; }
  PostId id() const { return static_cast<PostId>(id_); }

  /// Moves to the next id; done() once the gaps run out.
  void Advance() {
    uint64_t gap = 0;
    done_ = !gaps_.GetVarint(&gap);
    id_ += gap;
  }

 private:
  BinaryReader gaps_;
  uint64_t id_ = 0;
  bool done_ = false;
};

/// Appends the ids of the pairwise disjoint timelines under `cursors` to
/// `*out` in ascending order, skipping the first `skip` of them, so only
/// the suffix is copied. The skipped prefix is still decoded.
void MergeSuffix(std::vector<TimelineCursor> cursors, uint64_t skip,
                 std::vector<PostId>* out) {
  for (;;) {
    TimelineCursor* next = nullptr;
    for (TimelineCursor& cursor : cursors) {
      if (!cursor.done() && (next == nullptr || cursor.id() < next->id())) {
        next = &cursor;
      }
    }
    if (next == nullptr) return;
    if (skip > 0) {
      --skip;
    } else {
      out->push_back(next->id());
    }
    next->Advance();
  }
}

/// One shard: a worker thread exclusively owning one SharedBinTable, a
/// set of bins shared by all of the shard's components, plus the
/// timelines of every user (populated only for posts this shard admits)
/// and the shard's counters, behind one mutex the dispatcher takes to
/// answer polls and stats. The dispatcher appends routed posts to the
/// shard's inbox under a second mutex, and the worker takes the whole
/// inbox at once. It decides each post once for all of its author's
/// components on the shard, and only decides: the dispatcher logged
/// every post before routing it here. Lifetime is the server, not one
/// batch run.
class ShardWorker {
 public:
  /// Cumulative since the shard was built, updated once per post.
  struct Counters {
    uint64_t deliveries = 0;
    uint64_t comparisons = 0;
    uint64_t window_posts = 0;
    uint64_t timeline_bytes = 0;  ///< gaps held, all users
    uint64_t bin_entries = 0;     ///< entries the table's rings hold
    /// The table's ring slots, 12 B each; a ring halves once a quarter
    /// full, so it holds at most max(4, 4 × its entries) slots.
    uint64_t bin_bytes = 0;
  };

  ShardWorker(uint32_t index, const ServeOptions& options,
              SharedBinTable table, uint64_t num_users)
      : index_(index),
        options_(options),
        table_(std::move(table)),
        timelines_(static_cast<size_t>(num_users)) {}

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// The one ingest path: decides `post` once for this shard's
  /// components, then, under the shard's lock, appends it to the
  /// timelines of every admitting component's users and updates the
  /// counters. Runs on the worker thread in steady state, and on the
  /// recovering thread during WAL replay, before Spawn.
  void Ingest(const Post& post) {
    {
      obs::FlightScope span(options_.flight, index_, "offer", "serve");
      table_.Offer(post, &admitted_);
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t component : admitted_) {
      const std::span<const UserId> users = table_.users(component);
      for (UserId user : users) {
        if (user >= timelines_.size()) continue;
        counters_.timeline_bytes += timelines_[user].Push(post.id);
      }
      counters_.deliveries += users.size();
    }
    counters_.comparisons = table_.comparisons();
    counters_.window_posts = table_.window_posts();
    counters_.bin_entries = table_.bin_entries();
    counters_.bin_bytes = table_.bin_bytes();
  }

  void Spawn() {
    // Start may follow a Stop: clear the flag that ended the last thread.
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { Loop(); });
  }

  /// Dispatcher-side handle ---------------------------------------------

  /// Appends `post` to the inbox, waiting while it holds
  /// kShardInboxBound posts.
  void PushBlocking(const Post& post) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        if (inbox_.size() < kShardInboxBound) {
          inbox_.push_back(post);
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++routed_;
  }

  /// Posts routed to this shard that its worker has not decided yet.
  uint64_t backlog() const {
    return routed_ - finished_.load(std::memory_order_acquire);
  }

  /// Waits until the worker decided every post routed to it, so its
  /// timelines hold every post the dispatcher received before the call.
  void AwaitDrained() const {
    while (backlog() > 0) std::this_thread::yield();
  }

  /// Locks this shard into `*lock` and returns `user`'s gaps, which stay
  /// valid while the lock is held.
  std::string_view LockTimeline(UserId user,
                                std::unique_lock<std::mutex>* lock) {
    std::unique_lock<std::mutex> held(mu_);
    std::string_view gaps;
    if (user < timelines_.size()) gaps = timelines_[user].gaps();
    *lock = std::move(held);
    return gaps;
  }

  Counters counters() {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  /// Ends the worker once it has decided every queued post. Every push
  /// must come before the call, so the producer is done or joined.
  void RequestStop() { stop_.store(true, std::memory_order_release); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() FIREHOSE_RUNS_ON(shard_worker) {
    const int watchdog_task =
        options_.watchdog != nullptr
            ? options_.watchdog->RegisterTask("serve-shard")
            : -1;
    uint64_t processed = 0;
    std::vector<Post> batch;
    for (;;) {
      // The flag is read before the inbox is taken: every post was pushed
      // before the flag was set, so an empty inbox after a set flag means
      // nothing routed is left.
      const bool stopping = stop_.load(std::memory_order_acquire);
      batch.clear();
      {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        batch.swap(inbox_);
      }
      if (batch.empty()) {
        if (stopping) return;
        if (watchdog_task >= 0) {
          options_.watchdog->SetQueueDepth(watchdog_task, 0);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        // The batch's undecided posts, this one included: a worker stuck
        // on its last post still has one queued.
        if (watchdog_task >= 0) {
          options_.watchdog->SetQueueDepth(
              watchdog_task, static_cast<int64_t>(batch.size() - i));
        }
        Ingest(batch[i]);
        // Progress first, so the watchdog has seen every post a flush's
        // ack covers: a Poll after the ack never finds this one stalled.
        if (watchdog_task >= 0) {
          options_.watchdog->ReportProgress(watchdog_task, ++processed);
        }
        finished_.fetch_add(1, std::memory_order_release);
      }
    }
  }

  const uint32_t index_;
  const ServeOptions& options_;

  // Worker-confined state: built single-threaded before Spawn (the
  // exclusive phase), then owned by the worker thread until Join. The
  // thread-confinement pass enforces this statically.
  SharedBinTable table_ FIREHOSE_THREAD_OWNED(shard_worker);
  std::vector<uint32_t> admitted_ FIREHOSE_THREAD_OWNED(shard_worker);

  // Written by the worker once per post, read by the dispatcher once per
  // poll (after AwaitDrained) and per stats; never contended.
  std::mutex mu_;
  std::vector<Timeline> timelines_ FIREHOSE_GUARDED_BY(mu_);
  Counters counters_ FIREHOSE_GUARDED_BY(mu_);

  // Routed posts not yet taken by the worker, appended by the dispatcher
  // and swapped out whole by the worker; at most kShardInboxBound.
  std::mutex inbox_mu_;
  std::vector<Post> inbox_ FIREHOSE_GUARDED_BY(inbox_mu_);
  std::thread thread_;
  std::atomic<bool> stop_{false};
  /// Posts pushed by the dispatcher, and posts the worker decided
  /// (published with release, so a poll that sees them sees their posts).
  uint64_t routed_ FIREHOSE_THREAD_OWNED(dispatcher) = 0;
  std::atomic<uint64_t> finished_{0};
};

}  // namespace internal

std::string EncodeFollowRecord(UserId user, AuthorId author) {
  BinaryWriter out;
  out.PutU8(kRecordFollow);
  out.PutVarint(user);
  out.PutVarint(author);
  return out.Release();
}

std::string EncodeSealRecord(uint64_t num_users) {
  BinaryWriter out;
  out.PutU8(kRecordSeal);
  out.PutVarint(num_users);
  return out.Release();
}

std::string EncodePostRecord(const Post& post) {
  return static_cast<char>(kRecordPost) + dur::EncodePostRecord(post);
}

Server::Server(ServeOptions options, const AuthorGraph* graph)
    : options_(std::move(options)), graph_(graph) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  if (started_) {
    *error = "already started";
    return false;
  }
  if (options_.num_shards < 1 || options_.num_shards > kMaxServeShards) {
    *error = "shard count " + std::to_string(options_.num_shards) +
             " is outside 1.." + std::to_string(kMaxServeShards);
    return false;
  }
  OwnedFd listener = ListenLoopback(options_.port, /*backlog=*/8, &port_);
  if (!listener.valid()) {
    *error = "cannot bind 127.0.0.1:" + std::to_string(options_.port);
    return false;
  }
  if (!options_.data_dir.empty() && !Recover(error)) return false;

  // Recovery fed the shards directly; threads start only once nothing
  // can fail, so a failed Start leaves none behind.
  for (auto& shard : shards_) shard->Spawn();
  listen_fd_ = listener.Release();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  dispatcher_ = std::thread([this] { Dispatch(); });
  return true;
}

void Server::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher, the only producer, is joined, so every post is
  // queued: each worker decides what it holds, then ends.
  for (auto& shard : shards_) shard->RequestStop();
  for (auto& shard : shards_) shard->Join();
  if (wal_ != nullptr) {
    (void)wal_->Close();  // read-back recovery tolerates torn tails
  }
  if (listen_fd_ >= 0) {
    OwnedFd(listen_fd_).Reset();
    listen_fd_ = -1;
  }
  started_ = false;
}

ServeStats Server::stats() const {
  ServeStats s;
  s.connections = connections_.load(std::memory_order_seq_cst);
  s.posts_received = posts_received_.load(std::memory_order_seq_cst);
  s.posts_ingested = posts_ingested_.load(std::memory_order_seq_cst);
  s.duplicates = duplicates_.load(std::memory_order_seq_cst);
  s.polls = polls_.load(std::memory_order_seq_cst);
  s.malformed = malformed_.load(std::memory_order_seq_cst);
  s.wal_failures = wal_failures_.load(std::memory_order_seq_cst);
  for (const auto& shard : shards_) {
    const internal::ShardWorker::Counters counters = shard->counters();
    s.deliveries += counters.deliveries;
    s.comparisons += counters.comparisons;
  }
  return s;
}

bool Server::Recover(std::string* error) {
  // The replay rebuilds all of this from the first record. A Start after
  // a Stop would otherwise replay onto the last run's seal and posts.
  follows_.clear();
  num_users_ = 0;
  sealed_.store(false, std::memory_order_release);
  watermark_ = -1;
  posts_ingested_.store(0, std::memory_order_seq_cst);
  shards_.clear();
  author_shards_ = {};

  wal_sync_ = dur::MakeSyncPolicy(options_.wal_sync);
  if (wal_sync_ == nullptr) {
    *error = "unrecognized --wal_sync spec: " + options_.wal_sync;
    return false;
  }
  dur::WalOptions wal_options;
  wal_options.dir = options_.data_dir + "/wal";
  wal_options.sync = wal_sync_.get();
  wal_options.fsync_counter = &wal_fsyncs_;
  const dur::WalReadResult read =
      dur::ReadWal(wal_options, /*start_seq=*/0, /*truncate_tail=*/true);
  if (!read.ok) {
    *error = "server WAL: " + read.error;
    return false;
  }
  for (const dur::WalRecord& record : read.records) {
    // An intact frame that fails the codec or the order is cross-build
    // state or a bug, not a torn tail: refuse to guess.
    const auto reject = [&](const std::string& why) {
      *error = "server WAL record " + std::to_string(record.seq) + " " + why;
      return false;
    };
    BinaryReader reader(record.payload);
    uint8_t type = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    Post post;
    if (!reader.GetU8(&type)) type = 0;
    if (type == kRecordFollow && reader.GetVarint(&a) &&
        reader.GetVarint(&b) && reader.AtEnd()) {
      if (sealed()) return reject("is a follow after the seal");
      if (a >= kServeIdBound || b >= kServeIdBound) {
        return reject("follows with an id past " +
                      std::to_string(kServeIdBound));
      }
      follows_.emplace_back(static_cast<UserId>(a), static_cast<AuthorId>(b));
    } else if (type == kRecordSeal && reader.GetVarint(&a) && reader.AtEnd()) {
      if (sealed()) return reject("is a second seal");
      if (a > kServeIdBound) {
        return reject("seals " + std::to_string(a) + " users, past " +
                      std::to_string(kServeIdBound));
      }
      num_users_ = a;
      BuildShards(std::exchange(follows_, {}));
      sealed_.store(true, std::memory_order_release);
    } else if (type == kRecordPost &&
               dur::DecodePostRecord(
                   std::string_view(record.payload).substr(1), &post)) {
      if (!sealed()) return reject("is a post before the seal");
      if (static_cast<int64_t>(post.id) <= watermark_) {
        return reject("has post id " + std::to_string(post.id) +
                      ", not above the previous post's");
      }
      watermark_ = static_cast<int64_t>(post.id);
      posts_ingested_.fetch_add(1, std::memory_order_seq_cst);
      for (uint32_t shard : ShardsOf(post.author)) {
        shards_[shard]->Ingest(post);
      }
    } else {
      return reject("is not a follow, seal or post record");
    }
  }
  wal_ = std::make_unique<dur::WalWriter>(wal_options);
  if (!wal_->Open(read.next_seq)) {
    *error = "cannot open the server WAL in " + wal_options.dir;
    return false;
  }
  return true;
}

void Server::BuildShards(std::vector<std::pair<UserId, AuthorId>> follows) {
  const obs::Clock* clock = obs::RealClock();
  const uint64_t start_ns = clock->NowNanos();
  // Users are dense 0..num_users-1; subscriptions deduped + sorted so
  // replayed follow streams with repeats build the same components.
  std::vector<std::vector<AuthorId>> subscriptions(
      static_cast<size_t>(num_users_));
  for (const auto& [user, author] : follows) {
    if (user < subscriptions.size()) subscriptions[user].push_back(author);
  }
  // Each scratch list is freed as soon as the next step has consumed it,
  // so the tables built last reuse its memory instead of growing the
  // heap past it.
  FreeNow(&follows);
  std::vector<User> users;
  users.reserve(subscriptions.size());
  for (UserId id = 0; id < subscriptions.size(); ++id) {
    std::vector<AuthorId>& subs = subscriptions[id];
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    users.emplace_back(id, std::move(subs));
  }
  FreeNow(&subscriptions);

  DiversityThresholds thresholds;
  thresholds.lambda_c = options_.lambda_c;
  thresholds.lambda_t_ms = options_.lambda_t_ms;
  std::vector<SharedComponent> components =
      ComputeSharedComponents(thresholds, *graph_, users);
  FreeNow(&users);
  const uint64_t components_ns = clock->NowNanos();

  const PlacementRing ring(options_.num_shards);
  std::vector<std::vector<SharedComponent>> placed(options_.num_shards);
  for (SharedComponent& component : components) {
    const uint32_t shard = ring.ShardFor(ComponentKey(component.authors));
    placed[shard].push_back(std::move(component));
  }
  FreeNow(&components);

  // The dispatcher sends an author's posts to every shard whose table
  // routes the author, that is every shard holding a component of the
  // author: bit s of shard_masks[a] (kMaxServeShards is 63). Shards
  // ascend, so each list is sorted and unique.
  std::vector<uint64_t> shard_masks;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    for (const SharedComponent& component : placed[s]) {
      for (AuthorId a : component.authors) {
        if (a >= shard_masks.size()) shard_masks.resize(size_t{a} + 1);
        shard_masks[a] |= uint64_t{1} << s;
      }
    }
  }
  author_shards_ = FlatLists<uint32_t>::ByCounting(
      shard_masks.size(), [&](const auto& emit) {
        for (size_t a = 0; a < shard_masks.size(); ++a) {
          for (uint64_t mask = shard_masks[a]; mask != 0; mask &= mask - 1) {
            emit(a, static_cast<uint32_t>(std::countr_zero(mask)));
          }
        }
      });
  FreeNow(&shard_masks);
  shards_.clear();
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    SharedBinTable table(options_.algorithm, thresholds, *graph_,
                         std::move(placed[s]));
    shards_.push_back(std::make_unique<internal::ShardWorker>(
        s, options_, std::move(table), num_users_));
  }
  seal_components_us_ = (components_ns - start_ns) / 1000;
  seal_tables_us_ = (clock->NowNanos() - components_ns) / 1000;
}

std::span<const uint32_t> Server::ShardsOf(AuthorId author) const {
  if (author >= author_shards_.size()) return {};
  return author_shards_[author];
}

bool Server::Log(int fd, std::string_view record, SyncAt when) {
  if (wal_ == nullptr) return true;
  if ((record.empty() ||
       wal_->Append(record, /*seq=*/nullptr,
                    /*by_policy=*/when == SyncAt::kPolicy)) &&
      (when != SyncAt::kNow || wal_->Sync())) {
    return true;
  }
  // Fail closed: an unlogged write must not be acted on, and the writer
  // stays failed, so every later write is refused the same way.
  wal_failures_.fetch_add(1, std::memory_order_seq_cst);
  (void)SendError(fd, "WAL write failed");
  return false;
}

void Server::Dispatch() {
  // This task reports progress and never a queue depth, so it cannot
  // trip (a task with nothing queued is idle) and never turns /healthz
  // unhealthy; the shard workers' tasks can.
  const int watchdog_task =
      options_.watchdog != nullptr
          ? options_.watchdog->RegisterTask("serve-dispatch")
          : -1;
  uint64_t accepts = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    PublishIntrospection();
    OwnedFd conn = AcceptWithTimeout(listen_fd_, kDispatchPollMs);
    if (watchdog_task >= 0) {
      options_.watchdog->ReportProgress(watchdog_task, ++accepts);
    }
    if (!conn.valid()) continue;
    connections_.fetch_add(1, std::memory_order_seq_cst);
    SetIoTimeouts(conn.get(), /*send_timeout_ms=*/5000,
                  /*recv_timeout_ms=*/5000);
    HandleConnection(conn.get());
  }
}

void Server::HandleConnection(int fd) {
  FrameReader reader(fd);
  NetMessage message;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    switch (reader.Next(&message, kDispatchPollMs)) {
      case FrameReader::Result::kTimeout:
        PublishIntrospection();
        continue;
      case FrameReader::Result::kClosed:
        return;
      case FrameReader::Result::kError:
        return;
      case FrameReader::Result::kMalformed:
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "malformed frame");  // peer may already be gone
        return;
      case FrameReader::Result::kMessage:
        break;
    }
    if (!HandleMessage(fd, message)) return;
    // A connection that never idles long enough to time out would
    // otherwise leave every scrape at the state from before it.
    if (options_.debug != nullptr &&
        obs::RealClock()->NowNanos() - published_ns_ >=
            uint64_t{kDispatchPollMs} * 1000 * 1000) {
      PublishIntrospection();
    }
  }
}

bool Server::HandleMessage(int fd, const NetMessage& message) {
  switch (message.type) {
    case MsgType::kHello: {
      // A wrong kHelloMagic never reaches this point: DecodeBody rejects
      // it as malformed, poisoning the connection.
      if (message.min_version > kWireVersion ||
          message.max_version < kWireVersion) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "unsupported wire version");
        return false;
      }
      NetMessage assign;
      assign.type = MsgType::kAssign;
      assign.version = kWireVersion;
      assign.num_shards = options_.num_shards;
      assign.sealed = sealed();
      assign.posts_ingested = posts_ingested_.load(std::memory_order_seq_cst);
      return SendMessage(fd, assign);
    }
    case MsgType::kFollow: {
      if (sealed()) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "subscriptions are sealed");
        return false;
      }
      if (message.user >= kServeIdBound || message.author >= kServeIdBound) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "follow (" + std::to_string(message.user) + ", " +
                                std::to_string(message.author) +
                                ") has an id past " +
                                std::to_string(kServeIdBound));
        return false;
      }
      if (!Log(fd, EncodeFollowRecord(message.user, message.author),
               SyncAt::kSeal)) {
        return false;
      }
      follows_.emplace_back(message.user, message.author);
      return true;
    }
    case MsgType::kSeal: {
      if (sealed()) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "already sealed");
        return false;
      }
      if (message.num_users > kServeIdBound) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "seal of " + std::to_string(message.num_users) +
                                " users is past " +
                                std::to_string(kServeIdBound));
        return false;
      }
      num_users_ = message.num_users;
      for (const auto& [user, author] : follows_) {
        (void)author;
        num_users_ = std::max<uint64_t>(num_users_, user + 1ull);
      }
      // The seal is the one event whose loss changes recovery's shape
      // entirely, so it is always synced regardless of policy, and its
      // sync makes every follow before it durable.
      if (!Log(fd, EncodeSealRecord(num_users_), SyncAt::kNow)) return false;
      BuildShards(std::exchange(follows_, {}));
      for (auto& shard : shards_) shard->Spawn();
      sealed_.store(true, std::memory_order_release);
      return true;
    }
    case MsgType::kPost: {
      if (!sealed()) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "post before seal");
        return false;
      }
      const uint64_t received =
          posts_received_.fetch_add(1, std::memory_order_seq_cst) + 1;
      if (options_.crash_after_posts != 0 &&
          received >= options_.crash_after_posts) {
        // Crash-test hook: die as abruptly as a power cut. SIGKILL skips
        // every destructor and flush, which is the point.
        (void)::raise(SIGKILL);
      }
      const Post& post = message.post;
      const std::span<const uint32_t> shards = ShardsOf(post.author);
      if (shards.empty()) return true;  // followed by no one: not logged
      if (static_cast<int64_t>(post.id) <= watermark_) {
        // Posts are logged in id order, so this is a client resend of a
        // post already logged (possibly before a crash).
        duplicates_.fetch_add(1, std::memory_order_seq_cst);
        return true;
      }
      if (!Log(fd, EncodePostRecord(post), SyncAt::kPolicy)) return false;
      watermark_ = static_cast<int64_t>(post.id);
      posts_ingested_.fetch_add(1, std::memory_order_seq_cst);
      // No shard reads the text, which the WAL record above keeps: a
      // queued copy of it would cost a heap allocation per shard.
      const Post routed{post.id, post.author, post.time_ms, post.simhash, {}};
      for (uint32_t shard : shards) shards_[shard]->PushBlocking(routed);
      return true;
    }
    case MsgType::kPoll: {
      if (!sealed()) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "poll before seal");
        return false;
      }
      if (message.user >= num_users_) {
        malformed_.fetch_add(1, std::memory_order_seq_cst);
        (void)SendError(fd, "unknown user " + std::to_string(message.user) +
                                " (sealed with " +
                                std::to_string(num_users_) + ")");
        return false;
      }
      polls_.fetch_add(1, std::memory_order_seq_cst);
      NetMessage timeline;
      timeline.type = MsgType::kTimeline;
      timeline.user = message.user;
      timeline.since = message.since;
      {
        // Once every shard finished the posts routed before this poll,
        // its lists hold every earlier post. A user's components have
        // disjoint author sets, so the shard lists are disjoint and
        // their merge is the exact timeline. The locks are taken in
        // shard order and a worker only ever holds its own, so this
        // cannot deadlock.
        std::vector<std::unique_lock<std::mutex>> locks(shards_.size());
        std::vector<internal::TimelineCursor> cursors;
        cursors.reserve(shards_.size());
        for (size_t s = 0; s < shards_.size(); ++s) {
          shards_[s]->AwaitDrained();
          cursors.emplace_back(
              shards_[s]->LockTimeline(message.user, &locks[s]));
        }
        internal::MergeSuffix(std::move(cursors), message.since,
                              &timeline.post_ids);
      }
      return SendMessage(fd, timeline);
    }
    case MsgType::kFlush:
    case MsgType::kShutdown: {
      // The ack promises that every post before it is durable and
      // decided: the sync, then the wait a poll makes. Both are timed,
      // along with the most posts a shard had left to decide on arrival,
      // which is what the wait waits for.
      const obs::Clock* clock = obs::RealClock();
      uint64_t backlog = 0;
      for (const auto& shard : shards_) {
        backlog = std::max(backlog, shard->backlog());
      }
      const uint64_t arrived_ns = clock->NowNanos();
      bool keep = Log(fd, /*record=*/{}, SyncAt::kNow);
      const uint64_t synced_ns = clock->NowNanos();
      uint64_t drained_ns = synced_ns;
      if (keep) {
        for (auto& shard : shards_) shard->AwaitDrained();
        drained_ns = clock->NowNanos();
        NetMessage ack;
        ack.type = MsgType::kFlushAck;
        ack.ingested = posts_ingested_.load(std::memory_order_seq_cst);
        ack.duplicates = duplicates_.load(std::memory_order_seq_cst);
        keep = SendMessage(fd, ack);
      }
      flush_backlog_.Record(backlog);
      flush_sync_us_.Record((synced_ns - arrived_ns) / 1000);
      flush_drain_us_.Record((drained_ns - synced_ns) / 1000);
      if (message.type == MsgType::kShutdown) {
        stop_requested_.store(true, std::memory_order_release);
        return false;
      }
      return keep;
    }
    case MsgType::kAssign:
    case MsgType::kTimeline:
    case MsgType::kFlushAck:
    case MsgType::kError:
      // Server-to-client messages arriving at the server.
      malformed_.fetch_add(1, std::memory_order_seq_cst);
      (void)SendError(fd, "unexpected message direction");
      return false;
  }
  return false;
}

void Server::PublishIntrospection() {
  if (options_.debug == nullptr) return;
  published_ns_ = obs::RealClock()->NowNanos();
  const ServeStats s = stats();

  obs::MetricsRegistry registry;
  registry.GetCounter("serve.connections")->Add(s.connections);
  registry.GetCounter("serve.posts_received")->Add(s.posts_received);
  registry.GetCounter("serve.posts_ingested")->Add(s.posts_ingested);
  registry.GetCounter("serve.duplicates")->Add(s.duplicates);
  registry.GetCounter("serve.deliveries")->Add(s.deliveries);
  registry.GetCounter("serve.comparisons")->Add(s.comparisons);
  registry.GetCounter("serve.polls")->Add(s.polls);
  registry.GetCounter("serve.malformed")->Add(s.malformed);
  registry.GetCounter("serve.wal_failures")->Add(s.wal_failures);
  registry.GetCounter("serve.wal_fsyncs")->Add(wal_fsyncs_.value());
  registry.GetGauge("serve.num_shards")
      ->Set(static_cast<int64_t>(options_.num_shards));
  registry.GetGauge("serve.sealed")->Set(sealed() ? 1 : 0);
  registry.GetGauge("serve.seal.components_us")
      ->Set(static_cast<int64_t>(seal_components_us_));
  registry.GetGauge("serve.seal.tables_us")
      ->Set(static_cast<int64_t>(seal_tables_us_));
  registry.GetHistogram("serve.flush.sync_us", /*timing=*/true)
      ->MergeFrom(flush_sync_us_);
  registry.GetHistogram("serve.flush.drain_us", /*timing=*/true)
      ->MergeFrom(flush_drain_us_);
  registry.GetHistogram("serve.flush.backlog")->MergeFrom(flush_backlog_);

  std::string status = "{\"sealed\":";
  status += sealed() ? "true" : "false";
  status += ",\"num_shards\":" + std::to_string(options_.num_shards);
  status += ",\"posts_received\":" + std::to_string(s.posts_received);
  status += ",\"posts_ingested\":" + std::to_string(s.posts_ingested);
  status += ",\"duplicates\":" + std::to_string(s.duplicates);
  status += ",\"deliveries\":" + std::to_string(s.deliveries);
  status += ",\"polls\":" + std::to_string(s.polls);
  status += ",\"wal_failures\":" + std::to_string(s.wal_failures);
  status += ",\"kernel\":\"";
  status += kernels::GetKernelDispatchReport().active;
  std::string depths;
  std::string windows;
  std::string bytes;
  std::string entries;
  std::string bins;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string sep = i > 0 ? "," : "";
    const internal::ShardWorker::Counters counters = shards_[i]->counters();
    depths += sep + std::to_string(shards_[i]->backlog());
    windows += sep + std::to_string(counters.window_posts);
    bytes += sep + std::to_string(counters.timeline_bytes);
    entries += sep + std::to_string(counters.bin_entries);
    bins += sep + std::to_string(counters.bin_bytes);
  }
  status += "\",\"queue_depths\":[" + depths + "],\"window_posts\":[" +
            windows + "],\"timeline_bytes\":[" + bytes +
            "],\"bin_entries\":[" + entries + "],\"bin_bytes\":[" + bins +
            "]}";

  options_.debug->PublishMetrics(obs::ExportPrometheus(registry),
                                 obs::ExportJson(registry));
  options_.debug->PublishStatus(std::move(status));
  // The debug server adds the watchdog's tripped tasks when asked.
  options_.debug->PublishHealth(
      s.wal_failures == 0
          ? ""
          : "wal failed (" + std::to_string(s.wal_failures) + " refused)");
}

}  // namespace net
}  // namespace firehose
