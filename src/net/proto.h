#ifndef FIREHOSE_NET_PROTO_H_
#define FIREHOSE_NET_PROTO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/stream/post.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace net {

/// Wire protocol of the serving layer (DESIGN.md §4i).
///
/// Every message travels in one dur-framing frame
/// (`u32le length | u32le CRC32C(payload) | payload`, src/dur/framing.h),
/// so torn TCP tails and flipped bits are rejected by the same mechanism
/// the WAL uses. The payload is versioned:
///
///   u8 wire_version | u8 msg_type | type-specific body (BinaryWriter)
///
/// Hostile-input hardening mirrors src/io/persist.cc: a frame either
/// parses completely — exact length, matching checksum, known version,
/// known type, body fully consumed — or it is rejected with no partial
/// credit; the connection is then poisoned (the server answers kError
/// and closes), because after one bad frame the byte stream cannot be
/// trusted to re-synchronize.

inline constexpr uint8_t kWireVersion = 1;

/// Network frames are bounded far below the WAL's 1 GiB sanity cap: no
/// legitimate serving message exceeds a handful of KiB, so a larger
/// length field is a corrupt or hostile header, not a real message.
inline constexpr uint32_t kMaxNetFrameBytes = 1u << 20;

/// Handshake magic ("FHS1") carried inside kHello, so a stray client
/// speaking a different protocol is rejected by value, not by accident.
inline constexpr uint32_t kHelloMagic = 0x46485331;

enum class MsgType : uint8_t {
  kHello = 1,     ///< client -> server: magic, supported version range
  kAssign = 2,    ///< server -> client: version, shard count, resume info
  kFollow = 3,    ///< client -> server: user subscribes to author
  kSeal = 4,      ///< client -> server: subscription set complete
  kPost = 5,      ///< client -> server: one stream post (no per-post ack)
  kPoll = 6,      ///< client -> server: request a user's timeline suffix
  kTimeline = 7,  ///< server -> client: the polled post ids
  kFlush = 8,     ///< client -> server: sync the WAL, await every shard
  kFlushAck = 9,  ///< server -> client: totals once all shards decided
  kShutdown = 10, ///< client -> server: request graceful server stop
  kError = 11,    ///< server -> client: message text; connection closes
};

/// One decoded message. A tagged union in struct clothing: `type` says
/// which fields are meaningful; everything else is value-initialized.
struct NetMessage {
  MsgType type = MsgType::kError;

  // kHello
  uint32_t magic = 0;
  uint8_t min_version = 0;
  uint8_t max_version = 0;
  std::string client_name;

  // kAssign
  uint8_t version = 0;
  uint32_t num_shards = 0;
  bool sealed = false;
  uint64_t posts_ingested = 0;  ///< durable posts (resume/progress hint)

  // kFollow / kPoll / kTimeline
  uint32_t user = 0;
  uint32_t author = 0;
  uint32_t since = 0;               ///< kPoll: first timeline index wanted
  std::vector<PostId> post_ids;     ///< kTimeline

  // kSeal
  uint64_t num_users = 0;  ///< declared count, cross-checked server-side

  // kPost
  Post post;

  // kFlushAck
  uint64_t ingested = 0;
  uint64_t duplicates = 0;

  // kError
  std::string error;
};

/// Serializes `message` as one framed wire message appended to `*wire`.
void AppendMessage(const NetMessage& message, std::string* wire);

enum class DecodeStatus {
  kOk,        ///< one message decoded; *next_offset advanced
  kNeedMore,  ///< buffer holds a frame prefix only — read more bytes
  kMalformed, ///< corrupt frame, bad version/type, or trailing body bytes
};

/// Decodes the frame starting at `offset` of `buffer`. On kOk fills
/// `*message` in place, reusing its storage, and sets `*next_offset`
/// past the frame; the fields of other types are value-initialized
/// unless the caller wrote them. kNeedMore means the bytes so far are a
/// valid prefix and leaves `*message` untouched; kMalformed poisons the
/// stream and leaves `*message` unspecified.
[[nodiscard]] DecodeStatus DecodeMessage(std::string_view buffer,
                                         size_t offset, NetMessage* message,
                                         size_t* next_offset);

/// Incremental frame reader over a connected socket: buffers bytes and
/// yields one decoded message per call.
class FrameReader {
 public:
  enum class Result {
    kMessage,   ///< *message filled
    kTimeout,   ///< nothing arrived within the poll window (not fatal)
    kClosed,    ///< orderly peer close at a frame boundary
    kMalformed, ///< poisoned stream (bad frame / truncated close)
    kError,     ///< socket error
  };

  explicit FrameReader(int fd) : fd_(fd) {}

  /// Blocks up to `timeout_ms` for the next complete message, decoded
  /// into `*message` as DecodeMessage does.
  [[nodiscard]] Result Next(NetMessage* message, int timeout_ms)
      FIREHOSE_TAINT_SOURCE;

 private:
  int fd_;
  std::string buffer_;
  size_t offset_ = 0;
};

/// Convenience senders (framed + written to the socket). False on a
/// socket write failure.
[[nodiscard]] bool SendMessage(int fd, const NetMessage& message);
[[nodiscard]] bool SendError(int fd, std::string_view text);

}  // namespace net
}  // namespace firehose

#endif  // FIREHOSE_NET_PROTO_H_
