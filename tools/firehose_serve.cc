// firehose_serve: the networked serving layer (DESIGN.md §4i). Loads a
// precomputed author graph, then accepts follow/seal/post/poll traffic
// on a loopback socket and serves the S_* shared-component engine's
// timelines from --shards worker threads, with components placed by
// consistent hashing so a component never straddles shards. Each shard
// keeps one set of bins shared by all of its components and decides a
// post once for them; --algorithm picks the bin layout that set uses.
//
// Durability: --data_dir holds one server WAL, <data_dir>/wal, that the
// dispatcher appends follows, the seal and each routed post to before
// any shard sees them. A SIGKILL at any instant is recovered on restart
// by replaying it, at any --shards; clients that resend the stream from
// the start are deduped by the server's post-id watermark, and the
// recovered timelines are byte-identical to an uninterrupted run
// (tests/serving_smoke_test.cc kill-loops exactly this). A failed WAL
// write fails closed: it is refused with an error, never acted on.
//
// Introspection: --debug_port serves /metricsz /varz /statusz /tracez
// /healthz on 127.0.0.1 with serve.* counters published by the
// dispatcher; /healthz answers 503 once a WAL write has failed, and
// while a watchdog task is stalled.
//
// FIREHOSE_CRASH_AFTER=N in the environment SIGKILLs the process after
// N posts received (the kill-loop harness's deterministic kill switch).
//
// Usage:
//   firehose_serve --graph=author_graph.bin [--port=0] [--port_file=PATH]
//       [--shards=2] [--algorithm=cliquebin|unibin|neighborbin]
//       [--lambda_c=18] [--lambda_t_min=30]
//       [--data_dir=DIR] [--wal_sync=none|always|every=N]
//       [--debug_port=N] [--version]

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

namespace {

std::atomic<bool> g_signal{false};

void HandleSignal(int) { g_signal.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(
      {"graph", "port", "port_file", "shards", "algorithm", "lambda_c",
       "lambda_t_min", "data_dir", "wal_sync", "debug_port", "version",
       "help"});
  if (flags.Has("version")) {
    std::printf("%s\n", BuildInfoString().c_str());
    return 0;
  }
  if (!unknown.empty() || flags.Has("help") || !flags.Has("graph")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(
        stderr,
        "usage: firehose_serve --graph=PATH [--port=0] [--port_file=PATH]\n"
        "    [--shards=N] [--algorithm=unibin|neighborbin|cliquebin\n"
        "        (the bin layout each shard's components share)]\n"
        "    [--lambda_c=18] [--lambda_t_min=30]\n"
        "    [--data_dir=DIR] [--wal_sync=none|always|every=N]\n"
        "    [--debug_port=N (0 = ephemeral)] [--version]\n");
    return flags.Has("help") ? 0 : 2;
  }

  AuthorGraph graph;
  if (!LoadAuthorGraph(flags.GetString("graph", ""), &graph)) {
    std::fprintf(stderr, "error: cannot load author graph\n");
    return 1;
  }

  net::ServeOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 1));
  if (!ParseAlgorithm(flags.GetString("algorithm", "cliquebin"),
                      &options.algorithm)) {
    std::fprintf(stderr, "error: unknown algorithm\n");
    return 2;
  }
  options.lambda_c = static_cast<int>(flags.GetInt("lambda_c", 18));
  options.lambda_t_ms = flags.GetInt("lambda_t_min", 30) * 60 * 1000;
  options.data_dir = flags.GetString("data_dir", "");
  options.wal_sync = flags.GetString("wal_sync", "none");
  if (const char* env = std::getenv("FIREHOSE_CRASH_AFTER")) {
    options.crash_after_posts = std::strtoull(env, nullptr, 10);
  }

  // Live introspection: watchdog over dispatcher + shard workers, flight
  // recorder for offer spans, debug endpoints fed by the dispatcher. The
  // recorder's rings take 6.3 MB, so it exists only when /tracez can
  // read it, and on the heap: main's stack may be smaller than it.
  std::unique_ptr<obs::FlightRecorder> flight;
  obs::Watchdog watchdog(/*stall_nanos=*/5ull * 1000 * 1000 * 1000);
  std::unique_ptr<obs::DebugServer> debug_server;
  if (flags.Has("debug_port")) {
    flight = std::make_unique<obs::FlightRecorder>();
    obs::SetGlobalFlightRecorder(flight.get());
    obs::DebugServer::Options server_options;
    server_options.flight = flight.get();
    server_options.watchdog = &watchdog;
    debug_server = std::make_unique<obs::DebugServer>(server_options);
    if (!debug_server->Start(static_cast<int>(flags.GetInt("debug_port", 0)))) {
      std::fprintf(stderr, "error: cannot bind debug port\n");
      return 1;
    }
    std::printf("debug server listening on http://127.0.0.1:%d\n",
                debug_server->port());
    options.debug = debug_server->state();
    options.watchdog = &watchdog;
    options.flight = flight.get();
    // Long timeouts are normal while idle (the dispatcher parks in
    // accept), so the watchdog only reports; it never aborts.
    watchdog.SetTripCallback([](int, const char* name, uint64_t progress,
                                int64_t depth) {
      FIREHOSE_LOG(kWarn, "serve task stalled")
          .Kv("task", name)
          .Kv("progress", progress)
          .Kv("depth", depth);
    });
    watchdog.StartPolling(/*poll_interval_nanos=*/1000ull * 1000 * 1000);
  }

  net::Server server(options, &graph);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d (%u shard%s%s)\n", server.port(),
              options.num_shards, options.num_shards == 1 ? "" : "s",
              server.sealed() ? ", recovered sealed state" : "");
  std::fflush(stdout);

  // Tests learn the ephemeral port through --port_file (written after a
  // successful bind, so its existence doubles as a readiness signal).
  if (flags.Has("port_file")) {
    const std::string path = flags.GetString("port_file", "");
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(file, "%d\n", server.port());
    std::fclose(file);
  }

  (void)std::signal(SIGINT, HandleSignal);
  (void)std::signal(SIGTERM, HandleSignal);
  while (!g_signal.load(std::memory_order_acquire) &&
         !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const net::ServeStats stats = server.stats();
  std::printf(
      "served %llu connection(s): %llu posts received, %llu ingested, "
      "%llu duplicates, %llu deliveries, %llu polls\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.posts_received),
      static_cast<unsigned long long>(stats.posts_ingested),
      static_cast<unsigned long long>(stats.duplicates),
      static_cast<unsigned long long>(stats.deliveries),
      static_cast<unsigned long long>(stats.polls));

  if (debug_server != nullptr) {
    watchdog.StopPolling();
    debug_server->Stop();
    obs::SetGlobalFlightRecorder(nullptr);
  }
  return 0;
}
