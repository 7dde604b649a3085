#include "src/io/socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace firehose {

namespace {

/// Monotonic milliseconds for deadline arithmetic. Sockets sit below the
/// obs layer (obs depends on io), so this file keeps its own minimal
/// steady-clock read instead of threading an obs::Clock through; only
/// differences are used.
int64_t MonotonicMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sockaddr_in LoopbackAddr(int port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

/// Turns off Nagle's algorithm: the serve protocol writes a small flush
/// or poll frame right behind a large post batch and then waits for the
/// reply, which Nagle would hold back until the peer's delayed ACK.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// poll() one fd for `events`, retrying EINTR against the remaining
/// deadline. Returns >0 ready, 0 timeout, <0 hard error.
int PollFd(int fd, short events, int timeout_ms) {
  const int64_t deadline = MonotonicMillis() + timeout_ms;
  for (;;) {
    const int64_t remaining = deadline - MonotonicMillis();
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int ready =
        ::poll(&pfd, 1, remaining < 0 ? 0 : static_cast<int>(remaining));
    if (ready >= 0) return ready;
    if (errno != EINTR) return -1;
    if (MonotonicMillis() >= deadline) return 0;
  }
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    // POSIX leaves the fd state unspecified on EINTR from close; Linux
    // closes it, so retrying would race a concurrent open. Close once.
    ::close(fd_);
    fd_ = -1;
  }
}

OwnedFd ListenLoopback(int port, int backlog, int* bound_port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return OwnedFd();
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd.get(), backlog) < 0) {
    return OwnedFd();
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      bound_port != nullptr) {
    *bound_port = static_cast<int>(ntohs(addr.sin_port));
  }
  return fd;
}

OwnedFd AcceptWithTimeout(int listen_fd, int timeout_ms) {
  const int64_t deadline = MonotonicMillis() + timeout_ms;
  for (;;) {
    const int64_t remaining = deadline - MonotonicMillis();
    if (remaining < 0) return OwnedFd();
    const int ready =
        PollFd(listen_fd, POLLIN, static_cast<int>(remaining));
    if (ready <= 0) return OwnedFd();  // timeout or listener gone
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn >= 0) {
      SetNoDelay(conn);
      return OwnedFd(conn);
    }
    // EINTR: retry within the deadline. ECONNABORTED/EAGAIN: the pending
    // client vanished between poll and accept — wait for the next one.
    if (errno != EINTR && errno != ECONNABORTED && errno != EAGAIN &&
        errno != EWOULDBLOCK) {
      return OwnedFd();
    }
  }
}

OwnedFd ConnectLoopback(int port, int io_timeout_ms) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return OwnedFd();
  if (io_timeout_ms > 0) SetIoTimeouts(fd.get(), io_timeout_ms, io_timeout_ms);
  sockaddr_in addr = LoopbackAddr(port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      SetNoDelay(fd.get());
      return fd;
    }
    if (errno != EINTR) return OwnedFd();
  }
}

void SetIoTimeouts(int fd, int send_timeout_ms, int recv_timeout_ms) {
  timeval tv;
  if (send_timeout_ms > 0) {
    tv.tv_sec = send_timeout_ms / 1000;
    tv.tv_usec = (send_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (recv_timeout_ms > 0) {
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

bool WriteAllFd(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

long ReadSomeDeadline(int fd, char* buffer, size_t capacity, int timeout_ms) {
  const int ready = PollFd(fd, POLLIN, timeout_ms);
  if (ready < 0) return -2;
  if (ready == 0) return -1;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

bool ReadUntilTerminator(int fd, std::string_view terminator, size_t limit,
                         int deadline_ms, std::string* out) {
  const int64_t deadline = MonotonicMillis() + deadline_ms;
  char buf[1024];
  while (out->size() < limit) {
    if (out->find(terminator) != std::string::npos) return true;
    const int64_t remaining = deadline - MonotonicMillis();
    if (remaining <= 0) return false;
    const long n = ReadSomeDeadline(fd, buf, sizeof(buf),
                                    static_cast<int>(remaining));
    if (n <= 0) return false;  // close, timeout or error
    out->append(buf, static_cast<size_t>(n));
  }
  return out->find(terminator) != std::string::npos;
}

}  // namespace firehose
