// M-SPSD service scenario (paper §5): a central engine diversifies the
// stream for MANY users at once, reusing bins and comparisons across
// users whose subscriptions share a connected component of the author
// similarity graph (S_* engines) instead of running one engine per user
// (M_* engines).
//
// Build & run:  ./build/examples/multi_user_service
//
// Set FIREHOSE_DEBUG_PORT=0 (or a fixed port) to serve the live
// introspection endpoints (/metricsz /varz /statusz /tracez) on
// 127.0.0.1 while the engines run; the example self-scrapes /statusz at
// the end to show the round trip.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/firehose.h"

using namespace firehose;

int main() {
  // The flight recorder's rings take 6.3 MB: heap, and only when read.
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::DebugServer> debug_server;
  if (const char* env = std::getenv("FIREHOSE_DEBUG_PORT")) {
    flight = std::make_unique<obs::FlightRecorder>();
    obs::SetGlobalFlightRecorder(flight.get());
    obs::DebugServer::Options server_options;
    server_options.flight = flight.get();
    debug_server = std::make_unique<obs::DebugServer>(server_options);
    if (debug_server->Start(std::atoi(env))) {
      std::printf("debug server listening on http://127.0.0.1:%d\n",
                  debug_server->port());
    } else {
      std::fprintf(stderr, "cannot bind FIREHOSE_DEBUG_PORT=%s\n", env);
      debug_server.reset();
    }
  }
  // Offline: a 800-author graph.
  SocialGraphOptions graph_options;
  graph_options.num_authors = 800;
  graph_options.num_communities = 20;
  graph_options.avg_followees = 30.0;
  graph_options.seed = 10;
  const FollowGraph social = GenerateSocialGraph(graph_options);
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto similarities = AllPairsSimilarity(social, authors, 0.3);
  const AuthorGraph graph =
      AuthorGraph::FromSimilarities(authors, similarities, 0.7);

  // Every author is also a user subscribed to its followees — the
  // paper's §6.3 setup.
  std::vector<User> users;
  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    if (!social.Followees(a).empty()) {
      users.push_back(
          User{static_cast<UserId>(users.size()), social.Followees(a)});
    }
  }

  StreamGenOptions stream_options;
  stream_options.duration_ms = 6 * 3600 * 1000;
  stream_options.posts_per_author = 8.0;
  stream_options.seed = 11;
  const SimHasher hasher;
  const PostStream stream = GenerateStream(graph, hasher, stream_options);

  DiversityThresholds thresholds;
  thresholds.lambda_c = 18;
  thresholds.lambda_t_ms = 30 * 60 * 1000;

  std::printf("service: %zu users, %zu posts over 6h\n\n", users.size(),
              stream.size());
  std::printf("%-14s %12s %10s %9s %14s %14s %12s\n", "engine",
              "diversifiers", "time ms", "RAM MiB", "comparisons",
              "insertions", "deliveries");
  obs::MetricsRegistry metrics;
  uint64_t engines_run = 0;
  uint64_t total_deliveries = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    for (bool shared : {false, true}) {
      auto engine = shared
                        ? MakeSUserEngine(algorithm, thresholds, graph, users)
                        : MakeMUserEngine(algorithm, thresholds, graph, users);
      if (debug_server != nullptr) {
        flight->RecordInstant(0, "engine.start", "service");
      }
      const MultiUserRunResult result = RunMultiUser(*engine, stream);
      std::printf("%-14s %12zu %10.1f %9.2f %14llu %14llu %12llu\n",
                  std::string(engine->name()).c_str(),
                  engine->num_diversifiers(), result.wall_ms,
                  static_cast<double>(result.peak_bytes) / (1 << 20),
                  static_cast<unsigned long long>(result.comparisons),
                  static_cast<unsigned long long>(result.insertions),
                  static_cast<unsigned long long>(result.deliveries));
      ++engines_run;
      total_deliveries += result.deliveries;
      if (debug_server != nullptr) {
        // Publish a consistent snapshot after each engine so a scraper
        // watching /varz sees the service make progress — the DELIVERY
        // side (timeline appends), not just ingest-side work counters.
        metrics.GetCounter("service.engines_run")->Increment();
        metrics.GetCounter("service.comparisons")->Add(result.comparisons);
        metrics.GetCounter("service.deliveries")->Add(result.deliveries);
        obs::ExportOptions export_options;
        std::string status = "{\"engines_run\": ";
        status.append(std::to_string(engines_run));
        status.append(", \"deliveries\": ");
        status.append(std::to_string(total_deliveries));
        status.push_back('}');
        debug_server->state()->PublishMetrics(
            obs::ExportPrometheus(metrics, export_options),
            obs::ExportJson(metrics, export_options));
        debug_server->state()->PublishStatus(std::move(status));
      }
    }
  }
  if (debug_server != nullptr) {
    // Round-trip demo: scrape our own /statusz and /varz the way an
    // operator would, and reconcile the published delivery counter
    // against the local total — a mismatch would mean the publication
    // path dropped a snapshot.
    int status = 0;
    std::string body;
    if (HttpGet(debug_server->port(), "/statusz", &status, &body)) {
      std::printf("\nself-scrape GET /statusz -> %d\n%s", status,
                  body.c_str());
    }
    if (HttpGet(debug_server->port(), "/varz", &status, &body)) {
      const std::string want =
          "\"service.deliveries\": " + std::to_string(total_deliveries);
      std::printf("self-scrape GET /varz -> %d (%s: %s)\n", status,
                  want.c_str(),
                  body.find(want) != std::string::npos ? "reconciled"
                                                       : "MISMATCH");
    }
    debug_server->Stop();
    obs::SetGlobalFlightRecorder(nullptr);
  }
  std::printf(
      "\nS_* engines key shared connected components by author set: each "
      "shared component is diversified once and fanned out to all its "
      "users (paper: S_UniBin saves 43%% time / 27%% RAM vs M_UniBin).\n");
  return 0;
}
