#include "src/net/client.h"

#include <utility>

namespace firehose {
namespace net {

ServeClient::ServeClient(std::string client_name)
    : client_name_(std::move(client_name)) {}

ServeClient::~ServeClient() { Disconnect(); }

void ServeClient::Disconnect() {
  // Best-effort drain: buffered frames (a trailing Seal, say) must not
  // silently vanish on an orderly close.
  if (connected() && !send_buffer_.empty()) {
    (void)WriteAllFd(fd_.get(), send_buffer_);
  }
  reader_.reset();
  fd_.Reset();
  send_buffer_.clear();
}

bool ServeClient::Fail(const std::string& why) {
  last_error_ = why;
  Disconnect();
  return false;
}

bool ServeClient::Buffer(const NetMessage& message) {
  if (!connected()) return Fail("not connected");
  AppendMessage(message, &send_buffer_);
  if (send_buffer_.size() >= kFlushThresholdBytes) return FlushSocket();
  return true;
}

bool ServeClient::FlushSocket() {
  if (!connected()) return Fail("not connected");
  if (send_buffer_.empty()) return true;
  if (!WriteAllFd(fd_.get(), send_buffer_)) {
    return Fail("socket write failed");
  }
  send_buffer_.clear();
  return true;
}

bool ServeClient::Expect(MsgType expected, NetMessage* response) {
  if (!FlushSocket()) return false;
  // One generous overall deadline: the server answers barriers only
  // after building shards or draining queues, which is seconds of work
  // at test scale, not milliseconds.
  int remaining_ms = response_timeout_ms_;
  while (remaining_ms > 0) {
    const int slice_ms = remaining_ms < 250 ? remaining_ms : 250;
    remaining_ms -= slice_ms;
    switch (reader_->Next(response, slice_ms)) {
      case FrameReader::Result::kTimeout:
        continue;
      case FrameReader::Result::kClosed:
        return Fail("server closed the connection");
      case FrameReader::Result::kError:
        return Fail("socket read failed");
      case FrameReader::Result::kMalformed:
        return Fail("malformed frame from server");
      case FrameReader::Result::kMessage:
        if (response->type == MsgType::kError) {
          return Fail("server error: " + response->error);
        }
        if (response->type != expected) {
          return Fail("unexpected message type from server");
        }
        return true;
    }
  }
  return Fail("timed out waiting for server response");
}

bool ServeClient::Connect(int port, ConnectInfo* info) {
  Disconnect();
  // io_timeout_ms 0: the FrameReader does its own poll()-based
  // deadlines; a kernel SO_RCVTIMEO underneath would fight them.
  fd_ = ConnectLoopback(port, /*io_timeout_ms=*/0);
  if (!fd_.valid()) {
    last_error_ = "cannot connect to 127.0.0.1:" + std::to_string(port);
    return false;
  }
  reader_ = std::make_unique<FrameReader>(fd_.get());

  NetMessage hello;
  hello.type = MsgType::kHello;
  hello.magic = kHelloMagic;
  hello.min_version = kWireVersion;
  hello.max_version = kWireVersion;
  hello.client_name = client_name_;
  if (!Buffer(hello)) return false;

  NetMessage assign;
  if (!Expect(MsgType::kAssign, &assign)) return false;
  if (assign.version != kWireVersion) {
    return Fail("server negotiated an unsupported version");
  }
  if (info != nullptr) {
    info->num_shards = assign.num_shards;
    info->sealed = assign.sealed;
    info->posts_ingested = assign.posts_ingested;
  }
  return true;
}

bool ServeClient::Follow(UserId user, AuthorId author) {
  NetMessage message;
  message.type = MsgType::kFollow;
  message.user = user;
  message.author = author;
  return Buffer(message);
}

bool ServeClient::Seal(uint64_t num_users) {
  NetMessage message;
  message.type = MsgType::kSeal;
  message.num_users = num_users;
  return Buffer(message);
}

bool ServeClient::SendPost(const Post& post) {
  NetMessage message;
  message.type = MsgType::kPost;
  message.post = post;
  return Buffer(message);
}

bool ServeClient::Flush(uint64_t* ingested, uint64_t* duplicates) {
  NetMessage message;
  message.type = MsgType::kFlush;
  if (!Buffer(message)) return false;
  NetMessage ack;
  if (!Expect(MsgType::kFlushAck, &ack)) return false;
  if (ingested != nullptr) *ingested = ack.ingested;
  if (duplicates != nullptr) *duplicates = ack.duplicates;
  return true;
}

bool ServeClient::Poll(UserId user, uint32_t since,
                       std::vector<PostId>* post_ids) {
  NetMessage message;
  message.type = MsgType::kPoll;
  message.user = user;
  message.since = since;
  if (!Buffer(message)) return false;
  NetMessage timeline;
  if (!Expect(MsgType::kTimeline, &timeline)) return false;
  *post_ids = std::move(timeline.post_ids);
  return true;
}

bool ServeClient::Shutdown() {
  NetMessage message;
  message.type = MsgType::kShutdown;
  if (!Buffer(message)) return false;
  NetMessage ack;
  if (!Expect(MsgType::kFlushAck, &ack)) return false;
  Disconnect();
  return true;
}

}  // namespace net
}  // namespace firehose
