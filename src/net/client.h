#ifndef FIREHOSE_NET_CLIENT_H_
#define FIREHOSE_NET_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/multi_user.h"
#include "src/io/socket.h"
#include "src/net/proto.h"

namespace firehose {
namespace net {

/// The most bytes of buffered Follow and Post frames a ServeClient
/// holds: it writes them once they reach this, so a frame leaves the
/// client within one page of frames after it. One 4 KiB page is about
/// 45 post frames of servebench's stream, 4.5 ms of it at 10k posts/s,
/// so a flush or poll arrives with at most that many posts its shards
/// have not decided, and its round trip waits on the WAL sync rather
/// than on a burst. On servebench's paced_readwrite (2 shards, 4-core
/// VM, one 40 s run each), fresh_p50_ms read 53.5 ms at 32 KiB, 51.5
/// at 16, 51.4 at 8, 50.9 at 4, 50.8 at 2 and 50.7 at 1: below a page
/// the gain is within run-to-run noise, at up to four times the writes.
inline constexpr size_t kFlushThresholdBytes = 4 * 1024;

/// Client side of the serving protocol: connects, negotiates a version,
/// streams follows/posts and issues poll/flush barriers. Used by the
/// replay loadgen and the serving tests.
///
/// Ingest calls (Follow/SendPost) are *buffered*: frames accumulate in a
/// local buffer written to the socket once it holds kFlushThresholdBytes
/// or before any request that expects a response. The post path
/// therefore costs one write(2) per page of frames (about 45 posts of
/// servebench's stream), not one per post — the server never acks
/// individual posts, so there is nothing to wait for — and a flush or
/// poll finds at most one page of posts its shards have not seen.
///
/// Not thread-safe; one connection per thread.
class ServeClient {
 public:
  struct ConnectInfo {
    uint32_t num_shards = 0;
    bool sealed = false;             ///< server recovered past its seal
    uint64_t posts_ingested = 0;     ///< durable posts at connect time
  };

  explicit ServeClient(std::string client_name = "firehose-client");
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Hello/Assign handshake against 127.0.0.1:`port`.
  [[nodiscard]] bool Connect(int port, ConnectInfo* info = nullptr);

  /// Buffered subscription event. Only valid before Seal.
  [[nodiscard]] bool Follow(UserId user, AuthorId author);

  /// Declares the subscription set complete. Users are 0..num_users-1.
  [[nodiscard]] bool Seal(uint64_t num_users);

  /// Buffered post ingest (no per-post ack; see Flush).
  [[nodiscard]] bool SendPost(const Post& post);

  /// Barrier: flushes the local buffer, then waits until the server
  /// synced its WAL and every shard drained. Totals (posts logged and
  /// resends skipped, each post counted once) are returned when
  /// non-null. False, among other causes, when the WAL write failed.
  [[nodiscard]] bool Flush(uint64_t* ingested = nullptr,
                           uint64_t* duplicates = nullptr);

  /// Fetches `user`'s timeline from index `since` onward.
  [[nodiscard]] bool Poll(UserId user, uint32_t since,
                          std::vector<PostId>* post_ids);

  /// Requests a graceful server stop; waits for the final ack.
  [[nodiscard]] bool Shutdown();

  void Disconnect();

  bool connected() const { return fd_.valid(); }
  /// Human-readable cause of the last failed call.
  const std::string& last_error() const { return last_error_; }

 private:
  [[nodiscard]] bool Buffer(const NetMessage& message);
  [[nodiscard]] bool FlushSocket();
  /// Flushes, then waits for one message of `expected` type (kError and
  /// timeouts fail with last_error_ set).
  [[nodiscard]] bool Expect(MsgType expected, NetMessage* response);
  bool Fail(const std::string& why);

  std::string client_name_;
  OwnedFd fd_;
  std::unique_ptr<FrameReader> reader_;
  std::string send_buffer_;
  std::string last_error_;
  int response_timeout_ms_ = 60000;
};

}  // namespace net
}  // namespace firehose

#endif  // FIREHOSE_NET_CLIENT_H_
