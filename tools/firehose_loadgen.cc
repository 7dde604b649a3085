// firehose_loadgen: replay load generator for firehose_serve. Loads a
// recorded social graph + post stream, derives the paper's §6.3 user
// population (every author with followees subscribes to them), drives
// the serving protocol over a real socket — follows, seal, paced post
// replay with periodic flush barriers, timeline polls — and emits a
// BENCH_serve.json metrics artifact.
//
// --verify additionally runs the in-process S_* engine over the same
// inputs and requires every polled timeline to match it exactly; this
// is the end-to-end equivalence gate the serving smoke test builds on
// (including across a server SIGKILL + restart, where the loadgen
// simply reconnects and resends the stream from the start).
//
// Usage:
//   firehose_loadgen --port=N|--port_file=PATH --social=PATH --stream=PATH
//       [--graph=PATH --verify] [--algorithm=...] [--lambda_c=18]
//       [--lambda_t_min=30] [--speedup=0 (0 = full speed)]
//       [--flush_every=5000] [--bench_out=BENCH_serve.json]
//       [--shutdown] [--version]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

namespace {

int ReadPortFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  int port = 0;
  if (std::fscanf(file, "%d", &port) != 1) port = 0;
  std::fclose(file);
  return port;
}

/// Order-sensitive digest of all polled timelines, folded to 53 bits so
/// the value survives a JSON double round-trip bit-exactly.
uint64_t FoldTimelineHash(uint64_t hash) {
  return Fmix64(hash) & ((1ull << 53) - 1);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(
      {"port", "port_file", "social", "stream", "graph", "verify",
       "algorithm", "lambda_c", "lambda_t_min", "speedup", "flush_every",
       "bench_out", "shutdown", "version", "help"});
  if (flags.Has("version")) {
    std::printf("%s\n", BuildInfoString().c_str());
    return 0;
  }
  const bool verify = flags.GetBool("verify", false);
  if (!unknown.empty() || flags.Has("help") || !flags.Has("social") ||
      !flags.Has("stream") || (!flags.Has("port") && !flags.Has("port_file")) ||
      (verify && !flags.Has("graph"))) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(
        stderr,
        "usage: firehose_loadgen --port=N|--port_file=PATH --social=PATH\n"
        "    --stream=PATH [--graph=PATH --verify]\n"
        "    [--algorithm=unibin|neighborbin|cliquebin] [--lambda_c=18]\n"
        "    [--lambda_t_min=30] [--speedup=F (0 = full speed)]\n"
        "    [--flush_every=N] [--bench_out=PATH] [--shutdown] [--version]\n");
    return flags.Has("help") ? 0 : 2;
  }

  int port = static_cast<int>(flags.GetInt("port", 0));
  if (port == 0 && flags.Has("port_file")) {
    port = ReadPortFile(flags.GetString("port_file", ""));
  }
  if (port <= 0) {
    std::fprintf(stderr, "error: no server port (--port or --port_file)\n");
    return 2;
  }

  FollowGraph social;
  if (!LoadFollowGraph(flags.GetString("social", ""), &social)) {
    std::fprintf(stderr, "error: cannot load social graph\n");
    return 1;
  }
  PostStream stream;
  if (!LoadPostStream(flags.GetString("stream", ""), &stream)) {
    std::fprintf(stderr, "error: cannot load stream\n");
    return 1;
  }

  // The §6.3 population: every author with a nonempty followee set is a
  // user subscribed to it. Must match what the server was sealed with,
  // so a reconnecting loadgen regenerates the identical follows.
  std::vector<User> users;
  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    if (!social.Followees(a).empty()) {
      users.push_back(
          User{static_cast<UserId>(users.size()), social.Followees(a)});
    }
  }

  net::ServeClient client("firehose-loadgen");
  net::ServeClient::ConnectInfo info;
  if (!client.Connect(port, &info)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  std::printf("connected to 127.0.0.1:%d (%u shards, %s, %llu durable)\n",
              port, info.num_shards, info.sealed ? "sealed" : "fresh",
              static_cast<unsigned long long>(info.posts_ingested));

  if (!info.sealed) {
    for (const User& user : users) {
      for (AuthorId author : user.subscriptions) {
        if (!client.Follow(user.id, author)) {
          std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
          return 1;
        }
      }
    }
    // Seal has no reply and the server builds its shards on it; the ack
    // of the flush behind it marks the shards built, so the replay timer
    // below measures ingest only.
    if (!client.Seal(users.size()) || !client.Flush()) {
      std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
      return 1;
    }
  }

  // Paced replay. speedup=S compresses stream time by S; 0 replays as
  // fast as the socket accepts. Flush barriers every --flush_every posts
  // double as ingest latency probes (time until all shards drained).
  const double speedup = flags.GetDouble("speedup", 0.0);
  const uint64_t flush_every =
      static_cast<uint64_t>(flags.GetInt("flush_every", 5000));
  obs::MetricsRegistry metrics;
  obs::LogHistogram* flush_latency =
      metrics.GetHistogram("serve.flush_latency_ms", /*timing=*/true);

  WallTimer timer;
  uint64_t sent = 0;
  uint64_t ingested = 0;
  uint64_t duplicates = 0;
  for (const Post& post : stream) {
    if (speedup > 0) {
      const double target_ms = static_cast<double>(post.time_ms) / speedup;
      const double ahead_ms = target_ms - timer.ElapsedMillis();
      if (ahead_ms > 0.5) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(ahead_ms * 1000)));
      }
    }
    if (!client.SendPost(post)) {
      std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
      return 1;
    }
    ++sent;
    if (flush_every > 0 && sent % flush_every == 0) {
      WallTimer flush_timer;
      if (!client.Flush(&ingested, &duplicates)) {
        std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
        return 1;
      }
      flush_latency->Record(
          static_cast<uint64_t>(flush_timer.ElapsedMillis()));
    }
  }
  if (!client.Flush(&ingested, &duplicates)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  const double replay_ms = timer.ElapsedMillis();

  // Poll every user's full timeline.
  std::vector<std::vector<PostId>> timelines(users.size());
  uint64_t timeline_posts = 0;
  uint64_t timeline_hash = Fnv1a64("serve");
  for (const User& user : users) {
    if (!client.Poll(user.id, /*since=*/0, &timelines[user.id])) {
      std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
      return 1;
    }
    timeline_posts += timelines[user.id].size();
    for (PostId id : timelines[user.id]) {
      timeline_hash = HashCombine(timeline_hash, Fmix64(id + 1));
    }
    timeline_hash = HashCombine(timeline_hash, Fmix64(user.id + 0x9E37ull));
  }

  std::printf(
      "replayed %llu posts in %.1fms (%.0f posts/s): %llu ingested, "
      "%llu duplicates, %llu timeline posts across %zu users\n",
      static_cast<unsigned long long>(sent), replay_ms,
      replay_ms > 0 ? 1000.0 * static_cast<double>(sent) / replay_ms : 0.0,
      static_cast<unsigned long long>(ingested),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(timeline_posts), users.size());

  // End-to-end equivalence gate: the in-process S_* engine over the same
  // inputs must produce the identical per-user timelines.
  bool verify_ok = true;
  if (verify) {
    AuthorGraph graph;
    if (!LoadAuthorGraph(flags.GetString("graph", ""), &graph)) {
      std::fprintf(stderr, "error: cannot load author graph\n");
      return 1;
    }
    Algorithm algorithm = Algorithm::kCliqueBin;
    if (!ParseAlgorithm(flags.GetString("algorithm", "cliquebin"),
                        &algorithm)) {
      std::fprintf(stderr, "error: unknown algorithm\n");
      return 2;
    }
    DiversityThresholds thresholds;
    thresholds.lambda_c = static_cast<int>(flags.GetInt("lambda_c", 18));
    thresholds.lambda_t_ms = flags.GetInt("lambda_t_min", 30) * 60 * 1000;

    auto engine = MakeSUserEngine(algorithm, thresholds, graph, users);
    std::vector<std::pair<PostId, UserId>> deliveries;
    (void)RunMultiUser(*engine, stream, &deliveries);
    std::vector<std::vector<PostId>> expected(users.size());
    for (const auto& [post_id, user_id] : deliveries) {
      if (user_id < expected.size()) expected[user_id].push_back(post_id);
    }
    uint64_t mismatches = 0;
    for (size_t u = 0; u < users.size(); ++u) {
      if (timelines[u] != expected[u]) {
        ++mismatches;
        if (mismatches <= 3) {
          std::fprintf(stderr,
                       "verify: user %zu timeline mismatch (served %zu posts, "
                       "expected %zu)\n",
                       u, timelines[u].size(), expected[u].size());
        }
      }
    }
    verify_ok = mismatches == 0;
    std::printf("verify: %s (%llu/%zu user timelines match the in-process "
                "S_* engine)\n",
                verify_ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(users.size() - mismatches),
                users.size());
  }

  if (flags.Has("bench_out")) {
    // Exact keys are deterministic for fixed inputs (and a crash-free
    // server); wall/latency/per_sec keys carry machine timing and are
    // skip/ratio-classified by tools/bench_compare.py.
    metrics.GetCounter("serve.users")->Add(users.size());
    metrics.GetCounter("serve.posts_sent")->Add(sent);
    metrics.GetCounter("serve.ingested")->Add(ingested);
    metrics.GetCounter("serve.duplicates")->Add(duplicates);
    metrics.GetCounter("serve.timeline_posts")->Add(timeline_posts);
    metrics.GetCounter("serve.timeline_hash")
        ->Add(FoldTimelineHash(timeline_hash));
    if (verify) {
      metrics.GetGauge("serve.verify_ok")->Set(verify_ok ? 1 : 0);
    }
    metrics.GetGauge("serve.wall_ms")
        ->Set(static_cast<int64_t>(replay_ms));
    metrics.GetGauge("serve.posts_per_sec")
        ->Set(replay_ms > 0 ? static_cast<int64_t>(
                                  1000.0 * static_cast<double>(sent) /
                                  replay_ms)
                            : 0);
    const std::string path = flags.GetString("bench_out", "");
    if (!WriteFileAtomic(
            path, obs::ExportJson(metrics, {/*include_timing=*/true}))) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  if (flags.GetBool("shutdown", false)) {
    if (!client.Shutdown()) {
      std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
      return 1;
    }
  } else {
    client.Disconnect();
  }
  return verify_ok ? 0 : 1;
}
