#include "src/obs/debug_server.h"

#include <string_view>
#include <utility>

#include "src/util/build_info.h"

namespace firehose {
namespace obs {

void DebugState::PublishMetrics(std::string prometheus,
                                std::string varz_json) {
  std::lock_guard<std::mutex> lock(mu_);
  prometheus_ = std::move(prometheus);
  varz_ = std::move(varz_json);
  ++publish_count_;
}

void DebugState::PublishStatus(std::string status_json) {
  std::lock_guard<std::mutex> lock(mu_);
  status_ = std::move(status_json);
}

void DebugState::PublishHealth(std::string problem) {
  std::lock_guard<std::mutex> lock(mu_);
  health_ = std::move(problem);
}

std::string DebugState::metrics_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prometheus_;
}

std::string DebugState::varz_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return varz_;
}

std::string DebugState::status_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

std::string DebugState::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

uint64_t DebugState::publish_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return publish_count_;
}

DebugServer::DebugServer(const Options& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock()) {}

bool DebugServer::Start(int port) {
  start_nanos_ = clock_->NowNanos();
  return http_.Start(port,
                     [this](const HttpRequest& req) { return Handle(req); });
}

HttpResponse DebugServer::Handle(const HttpRequest& request) {
  HttpResponse response;
  if (request.path == "/healthz") {
    // The runtime's own problem, then each task tripped right now: with
    // work queued and no progress for the stall time. A task clears at
    // the watchdog's first Poll after it moves again.
    std::string problem = state_.health();
    if (options_.watchdog != nullptr) {
      Watchdog::TaskInfo tasks[Watchdog::kMaxTasks];
      const int n =
          options_.watchdog->SnapshotTasks(tasks, Watchdog::kMaxTasks);
      for (int i = 0; i < n; ++i) {
        if (!tasks[i].tripped) continue;
        if (!problem.empty()) problem += "; ";
        problem += std::string(tasks[i].name) + " stalled (depth " +
                   std::to_string(tasks[i].depth) + ", progress " +
                   std::to_string(tasks[i].progress) + ")";
      }
    }
    if (!problem.empty()) response.status = 503;
    response.body = (problem.empty() ? "ok" : problem) + "\n";
    return response;
  }
  if (request.path == "/metricsz") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = state_.metrics_prometheus();
    return response;
  }
  if (request.path == "/varz") {
    response.content_type = "application/json";
    response.body = state_.varz_json();
    if (response.body.empty()) response.body = "{}\n";
    return response;
  }
  if (request.path == "/statusz") {
    const uint64_t uptime_ms = (clock_->NowNanos() - start_nanos_) / 1000000u;
    std::string runtime = state_.status_json();
    if (runtime.empty()) runtime = "{}";
    response.content_type = "application/json";
    response.body = "{\n\"build\": \"";
    response.body.append(kBuildVersion);
    response.body.append("\",\n\"state_format\": ");
    response.body.append(std::to_string(kStateFormatVersion));
    response.body.append(",\n\"uptime_ms\": ");
    response.body.append(std::to_string(uptime_ms));
    if (options_.watchdog != nullptr) {
      Watchdog::TaskInfo tasks[Watchdog::kMaxTasks];
      const int n =
          options_.watchdog->SnapshotTasks(tasks, Watchdog::kMaxTasks);
      response.body.append(",\n\"watchdog\": {\"trips\": ");
      response.body.append(std::to_string(options_.watchdog->trip_count()));
      response.body.append(", \"tasks\": [");
      for (int i = 0; i < n; ++i) {
        if (i > 0) response.body.append(", ");
        response.body.append("{\"name\": \"");
        response.body.append(tasks[i].name);
        response.body.append("\", \"progress\": ");
        response.body.append(std::to_string(tasks[i].progress));
        response.body.append(", \"depth\": ");
        response.body.append(std::to_string(tasks[i].depth));
        response.body.append(", \"stalled\": ");
        response.body.append(tasks[i].tripped ? "true" : "false");
        response.body.push_back('}');
      }
      response.body.append("]}");
    }
    response.body.append(",\n\"runtime\": ");
    response.body.append(runtime);
    response.body.append("\n}\n");
    return response;
  }
  if (request.path == "/tracez") {
    FlightRecorder* flight = options_.flight != nullptr
                                 ? options_.flight
                                 : GlobalFlightRecorder();
    if (flight == nullptr) {
      response.status = 404;
      response.body = "no flight recorder installed\n";
      return response;
    }
    uint64_t window = options_.default_trace_window_nanos;
    constexpr std::string_view kWindowKey = "window_s=";
    if (request.query.rfind(kWindowKey, 0) == 0) {
      uint64_t seconds = 0;
      bool valid = request.query.size() > kWindowKey.size();
      for (size_t i = kWindowKey.size(); i < request.query.size(); ++i) {
        const char c = request.query[i];
        if (c < '0' || c > '9') {
          valid = false;
          break;
        }
        seconds = seconds * 10 + static_cast<uint64_t>(c - '0');
      }
      // window_s=0 means "everything retained".
      if (valid) window = seconds * 1000000000ull;
    }
    response.content_type = "application/json";
    response.body = flight->DumpJson(window);
    return response;
  }
  response.status = 404;
  response.body =
      "not found; try /metricsz /varz /statusz /tracez /healthz\n";
  return response;
}

}  // namespace obs
}  // namespace firehose
