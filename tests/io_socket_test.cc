// Socket-seam tests (src/io/socket): listener setup, accept and read
// deadlines, echo through WriteAllFd/ReadSomeDeadline, and the
// whole-read deadline of ReadUntilTerminator. Everything runs over a
// loopback pair created in-process, so the tests are hermetic.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <string>
#include <thread>

#include "src/firehose.h"

namespace firehose {
namespace {

struct LoopbackPair {
  OwnedFd listener;
  OwnedFd server;  ///< accepted side
  OwnedFd client;  ///< connected side
  int port = 0;
};

LoopbackPair MakePair() {
  LoopbackPair pair;
  pair.listener = ListenLoopback(0, /*backlog=*/4, &pair.port);
  EXPECT_TRUE(pair.listener.valid());
  pair.client = ConnectLoopback(pair.port, /*io_timeout_ms=*/0);
  EXPECT_TRUE(pair.client.valid());
  pair.server = AcceptWithTimeout(pair.listener.get(), /*timeout_ms=*/2000);
  EXPECT_TRUE(pair.server.valid());
  return pair;
}

TEST(IoSocketTest, ListenEphemeralReportsABoundPort) {
  int port = 0;
  const OwnedFd listener = ListenLoopback(0, 4, &port);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(port, 0);
}

TEST(IoSocketTest, ReuseAddrAllowsImmediateRebind) {
  int port = 0;
  {
    const OwnedFd listener = ListenLoopback(0, 4, &port);
    ASSERT_TRUE(listener.valid());
    // Leave a connection in flight so the port would normally linger.
    const OwnedFd client = ConnectLoopback(port, 0);
    const OwnedFd server = AcceptWithTimeout(listener.get(), 2000);
  }
  int rebound_port = 0;
  const OwnedFd again = ListenLoopback(port, 4, &rebound_port);
  EXPECT_TRUE(again.valid()) << "SO_REUSEADDR rebind failed for " << port;
  EXPECT_EQ(rebound_port, port);
}

/// Reads TCP_NODELAY back from `fd`; -1 when getsockopt fails.
int NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value;
}

TEST(IoSocketTest, BothEndsDisableNagle) {
  const LoopbackPair pair = MakePair();
  EXPECT_GT(NoDelay(pair.client.get()), 0) << "connected side";
  EXPECT_GT(NoDelay(pair.server.get()), 0) << "accepted side";
}

TEST(IoSocketTest, AcceptTimesOutWithoutAClient) {
  int port = 0;
  const OwnedFd listener = ListenLoopback(0, 4, &port);
  ASSERT_TRUE(listener.valid());
  const OwnedFd none = AcceptWithTimeout(listener.get(), /*timeout_ms=*/50);
  EXPECT_FALSE(none.valid());
}

TEST(IoSocketTest, EchoRoundTrip) {
  LoopbackPair pair = MakePair();
  const std::string payload = "hello across the loopback\n";
  ASSERT_TRUE(WriteAllFd(pair.client.get(), payload));

  std::string received;
  char chunk[64];
  while (received.size() < payload.size()) {
    const long n = ReadSomeDeadline(pair.server.get(), chunk, sizeof(chunk),
                                    /*timeout_ms=*/2000);
    ASSERT_GT(n, 0);
    received.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(received, payload);
}

TEST(IoSocketTest, LargeWriteSurvivesShortWrites) {
  // 4 MiB through a loopback socket forces many short writes; a reader
  // drains concurrently so WriteAllFd cannot deadlock on a full buffer.
  LoopbackPair pair = MakePair();
  const std::string blob(4 << 20, 'x');

  std::thread reader([&pair, want = blob.size()] {
    size_t total = 0;
    char chunk[65536];
    while (total < want) {
      const long n = ReadSomeDeadline(pair.server.get(), chunk, sizeof(chunk),
                                      /*timeout_ms=*/5000);
      if (n <= 0) break;
      total += static_cast<size_t>(n);
    }
    EXPECT_EQ(total, want);
  });
  EXPECT_TRUE(WriteAllFd(pair.client.get(), blob));
  reader.join();
}

TEST(IoSocketTest, ReadDeadlineFiresOnASilentPeer) {
  LoopbackPair pair = MakePair();
  char chunk[16];
  const long n =
      ReadSomeDeadline(pair.server.get(), chunk, sizeof(chunk), 50);
  EXPECT_EQ(n, -1) << "expected timeout, got " << n;
}

TEST(IoSocketTest, ReadSeesOrderlyClose) {
  LoopbackPair pair = MakePair();
  pair.client.Reset();
  char chunk[16];
  const long n =
      ReadSomeDeadline(pair.server.get(), chunk, sizeof(chunk), 2000);
  EXPECT_EQ(n, 0);
}

TEST(IoSocketTest, ReadUntilTerminatorStopsAtTerminator) {
  LoopbackPair pair = MakePair();
  ASSERT_TRUE(WriteAllFd(pair.client.get(), "GET / HTTP/1.1\r\n\r\ntrailing"));
  std::string request;
  ASSERT_TRUE(ReadUntilTerminator(pair.server.get(), "\r\n\r\n",
                                  /*limit=*/4096, /*deadline_ms=*/2000,
                                  &request));
  EXPECT_NE(request.find("\r\n\r\n"), std::string::npos);
}

TEST(IoSocketTest, ReadUntilTerminatorDeadlineBoundsADribblingPeer) {
  // The peer sends bytes but never the terminator: the WHOLE-read
  // deadline must fire even though individual reads keep succeeding
  // (the slow-loris case a per-recv timeout cannot catch).
  LoopbackPair pair = MakePair();
  std::thread dribbler([fd = pair.client.get()] {
    for (int i = 0; i < 50; ++i) {
      if (!WriteAllFd(fd, "x")) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::string request;
  const bool saw_terminator = ReadUntilTerminator(
      pair.server.get(), "\r\n\r\n", 4096, /*deadline_ms=*/100, &request);
  EXPECT_FALSE(saw_terminator);
  dribbler.join();
}

TEST(IoSocketTest, ConnectToAClosedPortFails) {
  int port = 0;
  {
    const OwnedFd listener = ListenLoopback(0, 4, &port);
    ASSERT_TRUE(listener.valid());
  }
  const OwnedFd fd = ConnectLoopback(port, 0);
  EXPECT_FALSE(fd.valid());
}

}  // namespace
}  // namespace firehose
