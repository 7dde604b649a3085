#ifndef FIREHOSE_IO_SOCKET_H_
#define FIREHOSE_IO_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/util/thread_annotations.h"

namespace firehose {

/// Low-level blocking-socket seam shared by the debug HTTP listener
/// (src/io/http) and the serving layer (src/net). All raw socket
/// syscalls in the tree live here, so the layers above stay
/// syscall-free and every accept/read path gets the same hardening:
/// SO_REUSEADDR on listeners, TCP_NODELAY on connections, EINTR retries
/// everywhere, and explicit deadlines so a stalled or dribbling peer can
/// never wedge a loop.
///
/// Everything binds/connects 127.0.0.1 only: the firehose service ports
/// are operator/loadgen ports, not internet-facing ones, and keeping
/// the loopback restriction in this one file makes that auditable.

/// RAII file-descriptor owner (close on destruction, move-only).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes the held descriptor (EINTR-safe); idempotent.
  void Reset();
  /// Releases ownership without closing.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Creates a TCP listener on 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR, so a restarted server re-binds its port immediately
/// instead of failing in TIME_WAIT. On success returns a valid fd and
/// stores the actually-bound port in `*bound_port`; on failure returns
/// an invalid OwnedFd.
[[nodiscard]] OwnedFd ListenLoopback(int port, int backlog, int* bound_port);

/// Waits up to `timeout_ms` for a pending connection and accepts it.
/// EINTR during the wait or the accept itself is retried within the
/// remaining budget — a signal must never look like "no client".
/// The accepted socket has TCP_NODELAY set. Returns an invalid OwnedFd
/// on timeout or listener error.
[[nodiscard]] OwnedFd AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Blocking connect to 127.0.0.1:`port`, with TCP_NODELAY set on the
/// connected socket. Returns an invalid OwnedFd on failure.
/// `io_timeout_ms` > 0 also arms SO_RCVTIMEO/SO_SNDTIMEO on the new
/// socket so later reads/writes cannot block forever.
[[nodiscard]] OwnedFd ConnectLoopback(int port, int io_timeout_ms);

/// Arms per-call send/receive timeouts on `fd` (milliseconds; <= 0
/// leaves the respective direction unlimited).
void SetIoTimeouts(int fd, int send_timeout_ms, int recv_timeout_ms);

/// Writes all of `data`, retrying short writes and EINTR. False on any
/// hard error (including a send timeout). Never raises SIGPIPE.
[[nodiscard]] bool WriteAllFd(int fd, std::string_view data);

/// Reads up to `capacity` bytes within `timeout_ms` (a poll-based
/// deadline independent of any SO_RCVTIMEO on the fd). Returns the byte
/// count read, 0 on orderly peer close, -1 on timeout, -2 on error.
[[nodiscard]] long ReadSomeDeadline(int fd, char* buffer, size_t capacity,
                                    int timeout_ms) FIREHOSE_TAINT_SOURCE;

/// Appends to `*out` until `terminator` appears in it, `limit` bytes
/// accumulate, the peer closes, or `deadline_ms` of total wall time
/// elapses — whichever comes first. The deadline bounds the WHOLE read,
/// so a client dribbling one byte per poll interval cannot hold the
/// caller hostage (the slow-loris case per-recv timeouts miss). True
/// when the terminator was seen.
[[nodiscard]] bool ReadUntilTerminator(int fd, std::string_view terminator,
                                       size_t limit, int deadline_ms,
                                       std::string* out) FIREHOSE_TAINT_SOURCE;

}  // namespace firehose

#endif  // FIREHOSE_IO_SOCKET_H_
