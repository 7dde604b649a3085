#include "src/io/http.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "src/io/socket.h"

namespace firehose {

namespace {

/// Total wall-time budget for reading one request head. This is an
/// overall deadline, not a per-recv timeout: a slow-loris client
/// dribbling one byte at a time is cut off here instead of resetting a
/// per-call timer on every byte.
constexpr int kRequestReadDeadlineMs = 5000;

/// Reads from `fd` until the header terminator, `limit` bytes, peer
/// close, or the deadline; returns what was read (possibly truncated).
/// The debug endpoints never need a request body, so everything past the
/// blank line is ignored.
std::string ReadRequestHead(int fd, size_t limit, int deadline_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  std::string head;
  char buf[1024];
  while (head.size() < limit) {
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      break;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;  // whole-request budget exhausted
    const long n = ReadSomeDeadline(fd, buf, sizeof(buf),
                                    static_cast<int>(remaining.count()));
    if (n <= 0) break;  // close, deadline, or error
    head.append(buf, static_cast<size_t>(n));
  }
  return head;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

}  // namespace

bool HttpServer::Start(int port, Handler handler) {
  if (thread_.joinable()) return false;  // already started
  handler_ = std::move(handler);

  OwnedFd listener = ListenLoopback(port, /*backlog=*/8, &port_);
  if (!listener.valid()) return false;
  listen_fd_ = listener.Release();

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void HttpServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  if (listen_fd_ >= 0) {
    OwnedFd(listen_fd_).Reset();
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Short accept timeout so Stop() is prompt; EINTR inside is retried
    // by the socket layer rather than surfacing as a spurious miss.
    OwnedFd conn = AcceptWithTimeout(listen_fd_, /*timeout_ms=*/100);
    if (!conn.valid()) continue;

    // Belt and braces alongside the ReadRequestHead deadline: kernel
    // timeouts for the response write path.
    SetIoTimeouts(conn.get(), /*send_timeout_ms=*/2000,
                  /*recv_timeout_ms=*/2000);

    const std::string head = ReadRequestHead(
        conn.get(), /*limit=*/16 * 1024, kRequestReadDeadlineMs);

    HttpRequest request;
    const size_t line_end = head.find_first_of("\r\n");
    const std::string line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);

    HttpResponse response;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      response.status = 400;
      response.body = "malformed request line\n";
    } else {
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t qmark = target.find('?');
      if (qmark != std::string::npos) {
        request.query = target.substr(qmark + 1);
        target.resize(qmark);
      }
      request.path = std::move(target);
      response = handler_ ? handler_(request)
                          : HttpResponse{404, "text/plain", "no handler\n"};
    }

    std::string wire = "HTTP/1.0 ";
    wire.append(std::to_string(response.status));
    wire.push_back(' ');
    wire.append(StatusText(response.status));
    wire.append("\r\nContent-Type: ");
    wire.append(response.content_type);
    wire.append("\r\nContent-Length: ");
    wire.append(std::to_string(response.body.size()));
    wire.append("\r\nConnection: close\r\n\r\n");
    if (request.method != "HEAD") wire.append(response.body);
    (void)WriteAllFd(conn.get(), wire);
  }
}

bool HttpGet(int port, const std::string& path, int* status,
             std::string* body) {
  OwnedFd fd = ConnectLoopback(port, /*io_timeout_ms=*/5000);
  if (!fd.valid()) return false;

  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!WriteAllFd(fd.get(), request)) return false;

  std::string raw;
  char buf[4096];
  for (;;) {
    const long n = ReadSomeDeadline(fd.get(), buf, sizeof(buf),
                                    /*timeout_ms=*/5000);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }

  // "HTTP/1.0 200 OK\r\n..." — the status code sits after the first space.
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return false;
  *status = std::atoi(raw.c_str() + sp + 1);

  const size_t body_at = raw.find("\r\n\r\n");
  if (body_at == std::string::npos) return false;
  body->assign(raw, body_at + 4, std::string::npos);
  return true;
}

}  // namespace firehose
