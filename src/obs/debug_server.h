#ifndef FIREHOSE_OBS_DEBUG_SERVER_H_
#define FIREHOSE_OBS_DEBUG_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/io/http.h"
#include "src/obs/clock.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/watchdog.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace obs {

/// Mailbox between a single-threaded runtime and the debug server's
/// responder thread.
///
/// MetricsRegistry is deliberately single-threaded (per-thread
/// registries, merged in shard order), so the HTTP thread must never
/// touch a live registry. Instead the owning thread *renders* a
/// snapshot at its own pace (between posts, every publish interval) and
/// drops the finished strings in here; the responder serves whatever
/// was published last. Scrapes are therefore internally consistent —
/// every counter in one response comes from the same instant — and
/// monotone run-to-run: a mid-stream scrape is always <= the final
/// snapshot, counter by counter.
class DebugState {
 public:
  /// Owning-thread side: replaces the served metrics renderings.
  void PublishMetrics(std::string prometheus, std::string varz_json);

  /// Owning-thread side: replaces the runtime block of /statusz (a JSON
  /// object: queue depths, WAL position, shard progress...).
  void PublishStatus(std::string status_json);

  /// Owning-thread side: replaces the runtime's own health problem,
  /// which /healthz serves ahead of the watchdog's tripped tasks. Empty
  /// means healthy; anything else is why the runtime is not.
  void PublishHealth(std::string problem);

  /// Responder side: copies of the latest publications (empty string
  /// before the first publish).
  std::string metrics_prometheus() const;
  std::string varz_json() const;
  std::string status_json() const;
  std::string health() const;

  uint64_t publish_count() const;

 private:
  mutable std::mutex mu_;
  std::string prometheus_ FIREHOSE_GUARDED_BY(mu_);
  std::string varz_ FIREHOSE_GUARDED_BY(mu_);
  std::string status_ FIREHOSE_GUARDED_BY(mu_);
  std::string health_ FIREHOSE_GUARDED_BY(mu_);
  uint64_t publish_count_ FIREHOSE_GUARDED_BY(mu_) = 0;
};

/// The live-introspection endpoint bundle:
///
///   /metricsz  Prometheus text exposition (latest published snapshot)
///   /varz      firehose.metrics.v1 JSON   (same snapshot)
///   /statusz   build stamp, uptime, and the runtime's status block
///   /tracez    flight-recorder dump (Chrome trace JSON); ?window_s=N
///   /healthz   "ok", or 503 with the published health problem, then
///              every watchdog task tripped when the request arrives
///
/// Binds 127.0.0.1 only (this is an operator port, not a service port).
/// Start with port 0 to let the kernel pick; the chosen port is in
/// port(). The server owns no runtime state: everything it serves comes
/// from the DebugState mailbox, the flight recorder's lock-free rings,
/// the watchdog's atomic task slots and static build info, so it can
/// never block the hot path, and a runtime that stops publishing still
/// shows its tripped tasks.
class DebugServer {
 public:
  struct Options {
    const Clock* clock = nullptr;        // uptime source; null = real
    FlightRecorder* flight = nullptr;    // /tracez; null = global recorder
    Watchdog* watchdog = nullptr;        // /statusz tasks, /healthz trips
    uint64_t default_trace_window_nanos = 30ull * 1000 * 1000 * 1000;
  };

  DebugServer() : DebugServer(Options()) {}
  explicit DebugServer(const Options& options);

  [[nodiscard]] bool Start(int port);
  void Stop() { http_.Stop(); }
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  DebugState* state() { return &state_; }

 private:
  HttpResponse Handle(const HttpRequest& request);

  Options options_;
  const Clock* clock_;
  DebugState state_;
  HttpServer http_;
  uint64_t start_nanos_ = 0;
};

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_DEBUG_SERVER_H_
