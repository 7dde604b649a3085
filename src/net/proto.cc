#include "src/net/proto.h"

#include "src/dur/durable.h"
#include "src/dur/framing.h"
#include "src/io/socket.h"
#include "src/util/binary.h"

namespace firehose {
namespace net {

namespace {

/// Caps on variable-length fields, enforced on decode so a hostile
/// frame cannot make the server allocate unbounded memory even when its
/// CRC happens to check out (e.g. a malicious peer, not line noise).
constexpr size_t kMaxNameBytes = 256;
constexpr size_t kMaxErrorBytes = 4096;
constexpr size_t kMaxTimelineIds = 1u << 18;

void EncodeBody(const NetMessage& m, BinaryWriter* body) {
  switch (m.type) {
    case MsgType::kHello:
      body->PutVarint(m.magic);
      body->PutU8(m.min_version);
      body->PutU8(m.max_version);
      body->PutString(m.client_name);
      break;
    case MsgType::kAssign:
      body->PutU8(m.version);
      body->PutVarint(m.num_shards);
      body->PutU8(m.sealed ? 1 : 0);
      body->PutVarint(m.posts_ingested);
      break;
    case MsgType::kFollow:
      body->PutVarint(m.user);
      body->PutVarint(m.author);
      break;
    case MsgType::kSeal:
      body->PutVarint(m.num_users);
      break;
    case MsgType::kPost:
      // The WAL's post record is the body verbatim, so the serving path
      // and the durability path share one post codec.
      body->PutString(dur::EncodePostRecord(m.post));
      break;
    case MsgType::kPoll:
      body->PutVarint(m.user);
      body->PutVarint(m.since);
      break;
    case MsgType::kTimeline:
      body->PutVarint(m.user);
      body->PutVarint(m.since);
      body->PutVarint(m.post_ids.size());
      for (PostId id : m.post_ids) body->PutVarint(id);
      break;
    case MsgType::kFlush:
    case MsgType::kShutdown:
      break;
    case MsgType::kFlushAck:
      body->PutVarint(m.ingested);
      body->PutVarint(m.duplicates);
      break;
    case MsgType::kError:
      body->PutString(m.error);
      break;
  }
}

[[nodiscard]] bool DecodeU32(BinaryReader* reader, uint32_t* out) {
  uint64_t value = 0;
  if (!reader->GetVarint(&value) || value > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

[[nodiscard]] bool DecodeBody(MsgType type, std::string_view body,
                              NetMessage* m) {
  BinaryReader reader(body);
  switch (type) {
    case MsgType::kHello: {
      uint64_t magic = 0;
      uint8_t min_version = 0;
      uint8_t max_version = 0;
      std::string name;
      if (!reader.GetVarint(&magic) || !reader.GetU8(&min_version) ||
          !reader.GetU8(&max_version) || !reader.GetString(&name) ||
          !reader.AtEnd() || magic != kHelloMagic ||
          name.size() > kMaxNameBytes) {
        return false;
      }
      m->magic = static_cast<uint32_t>(magic);
      m->min_version = min_version;
      m->max_version = max_version;
      m->client_name = std::move(name);
      return true;
    }
    case MsgType::kAssign: {
      uint8_t sealed = 0;
      if (!reader.GetU8(&m->version) || !DecodeU32(&reader, &m->num_shards) ||
          !reader.GetU8(&sealed) || !reader.GetVarint(&m->posts_ingested) ||
          !reader.AtEnd() || sealed > 1) {
        return false;
      }
      m->sealed = sealed == 1;
      return true;
    }
    case MsgType::kFollow:
      return DecodeU32(&reader, &m->user) && DecodeU32(&reader, &m->author) &&
             reader.AtEnd();
    case MsgType::kSeal:
      return reader.GetVarint(&m->num_users) && reader.AtEnd();
    case MsgType::kPost: {
      std::string_view record;
      return reader.GetStringView(&record) && reader.AtEnd() &&
             dur::DecodePostRecord(record, &m->post);
    }
    case MsgType::kPoll:
      return DecodeU32(&reader, &m->user) && DecodeU32(&reader, &m->since) &&
             reader.AtEnd();
    case MsgType::kTimeline: {
      uint64_t count = 0;
      if (!DecodeU32(&reader, &m->user) || !DecodeU32(&reader, &m->since) ||
          !reader.GetVarint(&count) || count > kMaxTimelineIds) {
        return false;
      }
      m->post_ids.clear();
      m->post_ids.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        uint32_t id = 0;
        if (!DecodeU32(&reader, &id)) return false;
        m->post_ids.push_back(id);
      }
      return reader.AtEnd();
    }
    case MsgType::kFlush:
    case MsgType::kShutdown:
      return reader.AtEnd();
    case MsgType::kFlushAck:
      return reader.GetVarint(&m->ingested) &&
             reader.GetVarint(&m->duplicates) && reader.AtEnd();
    case MsgType::kError:
      return reader.GetString(&m->error) && reader.AtEnd() &&
             m->error.size() <= kMaxErrorBytes;
  }
  return false;
}

}  // namespace

void AppendMessage(const NetMessage& message, std::string* wire) {
  BinaryWriter payload;
  payload.PutU8(kWireVersion);
  payload.PutU8(static_cast<uint8_t>(message.type));
  EncodeBody(message, &payload);
  dur::AppendFrame(wire, payload.buffer());
}

DecodeStatus DecodeMessage(std::string_view buffer, size_t offset,
                           NetMessage* message, size_t* next_offset) {
  // Reject absurd lengths before dur::ParseFrame would wait for up to
  // 1 GiB of them to "arrive": at 8+ buffered bytes the length field is
  // known, and a value past the serving cap is hostile, not pending.
  if (buffer.size() >= offset + 4) {
    const uint32_t length = dur::GetU32Le(buffer, offset);
    if (length > kMaxNetFrameBytes) return DecodeStatus::kMalformed;
  }
  std::string_view payload;
  size_t next = 0;
  switch (dur::ParseFrame(buffer, offset, &payload, &next)) {
    case dur::FrameStatus::kTruncated:
      return DecodeStatus::kNeedMore;
    case dur::FrameStatus::kCorrupt:
      return DecodeStatus::kMalformed;
    case dur::FrameStatus::kOk:
      break;
  }
  if (payload.size() < 2) return DecodeStatus::kMalformed;
  const uint8_t version = static_cast<uint8_t>(payload[0]);
  const uint8_t raw_type = static_cast<uint8_t>(payload[1]);
  if (version != kWireVersion) return DecodeStatus::kMalformed;
  if (raw_type < static_cast<uint8_t>(MsgType::kHello) ||
      raw_type > static_cast<uint8_t>(MsgType::kError)) {
    return DecodeStatus::kMalformed;
  }
  // Decoded in place. A body decode sets every field of its type, so the
  // other types' fields stay value-initialized as long as a change of
  // type resets the message, which a run of one type never pays for.
  const MsgType type = static_cast<MsgType>(raw_type);
  if (message->type != type) *message = NetMessage{};
  message->type = type;
  if (!DecodeBody(type, payload.substr(2), message)) {
    return DecodeStatus::kMalformed;
  }
  *next_offset = next;
  return DecodeStatus::kOk;
}

FrameReader::Result FrameReader::Next(NetMessage* message, int timeout_ms) {
  for (;;) {
    size_t next = offset_;
    switch (DecodeMessage(buffer_, offset_, message, &next)) {
      case DecodeStatus::kOk:
        offset_ = next;
        // Compact once the consumed prefix dominates, so a long-lived
        // connection does not grow the buffer without bound.
        if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
          buffer_.erase(0, offset_);
          offset_ = 0;
        }
        return Result::kMessage;
      case DecodeStatus::kMalformed:
        return Result::kMalformed;
      case DecodeStatus::kNeedMore:
        break;
    }
    char chunk[16 * 1024];
    const long n = ReadSomeDeadline(fd_, chunk, sizeof(chunk), timeout_ms);
    if (n == 0) {
      // Orderly close: clean only at a frame boundary; mid-frame it is a
      // truncation and the partial frame must not be silently dropped.
      return offset_ == buffer_.size() ? Result::kClosed : Result::kMalformed;
    }
    if (n == -1) return Result::kTimeout;
    if (n < 0) return Result::kError;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool SendMessage(int fd, const NetMessage& message) {
  std::string wire;
  AppendMessage(message, &wire);
  return WriteAllFd(fd, wire);
}

bool SendError(int fd, std::string_view text) {
  NetMessage message;
  message.type = MsgType::kError;
  message.error.assign(text);
  return SendMessage(fd, message);
}

}  // namespace net
}  // namespace firehose
