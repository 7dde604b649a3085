// servebench: workload generator, single-connection client and
// in-process layer probes of the served-path benchmark. run.py builds it,
// starts firehose_serve, and turns the JSON these subcommands print into
// the benchmark's metrics.
//
//   servebench gen    --seed=N --out=DIR --prefixes=100000
//       [--authors=4000 --posts_per_author=50]
//       Generates the seeded §6.3 population (social graph, λa=0.7 author
//       graph, one-day stream) and the reference timeline hash of the
//       in-process S_CliqueBin engine for each stream prefix (0 = all).
//
//   servebench drive  --data=DIR --port=P --server_pid=PID [--posts=N]
//       [--rate=R --flush_ms=F --polls_per_flush=K] [--trace_out=FILE]
//       One served pass: setup (connect, follows, seal, flush barrier),
//       ingest (closed loop, or open loop at R posts/s with a flush every
//       F ms of schedule followed by K incremental polls), then one full
//       poll per user whose hash must equal the reference.
//
//   servebench layers --data=DIR --scratch=DIR [--posts=N]
//       [--wal_sync=none|always] [--flush_posts=N] [--trace_out=FILE]
//       Times each module's public entry points in-process on the same
//       inputs: proto codec, placement, author components and covers,
//       the S_* engines, the sharded runtime and a WAL replica.
//
// Every subcommand prints one JSON object as its last line of stdout.
// --trace_out writes the spans recorded around each call as Chrome
// trace-event JSON when the subcommand ends.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/core/kernels/dispatch.h"
#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

namespace {

using SteadyClock = std::chrono::steady_clock;

// The §6.3 population every workload shares (gen's defaults).
constexpr int64_t kAuthors = 4000;
constexpr double kPostsPerAuthor = 50.0;
constexpr double kLambdaA = 0.7;
// Must match the --shards run.py passes to firehose_serve.
constexpr uint32_t kShards = 2;
// OfferBatch burst of the single-threaded engine baseline; equals the
// serve worker's ingest_batch_max default.
constexpr size_t kOfferBatch = 64;
// Prefix of the stream each bin algorithm is timed on (all three on the
// full stream would dominate the traced run).
constexpr size_t kAlgorithmPrefix = 20000;

double Seconds(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// firehose_serve's thresholds: λc=18, λt=30 min.
DiversityThresholds ServeThresholds() {
  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = 30 * 60 * 1000;
  return t;
}

/// The §6.3 population: every author with followees is a user
/// subscribed to them (the same users firehose_loadgen derives).
std::vector<User> Population(const FollowGraph& social) {
  std::vector<User> users;
  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    std::vector<AuthorId> subs = social.Followees(a);
    if (subs.empty()) continue;
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    users.emplace_back(static_cast<UserId>(users.size()), std::move(subs));
  }
  return users;
}

uint64_t NumFollows(const std::vector<User>& users) {
  uint64_t follows = 0;
  for (const User& user : users) follows += user.subscriptions.size();
  return follows;
}

/// Order-sensitive digest of every user's timeline (firehose_loadgen's
/// digest before its 53-bit fold).
uint64_t TimelineHash(const std::vector<std::vector<PostId>>& timelines) {
  uint64_t hash = Fnv1a64("serve");
  for (size_t user = 0; user < timelines.size(); ++user) {
    for (PostId id : timelines[user]) hash = HashCombine(hash, Fmix64(id + 1));
    hash = HashCombine(hash, Fmix64(user + 0x9E37ull));
  }
  return hash;
}

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Flat JSON object builder for the one result line.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

struct Inputs {
  FollowGraph social;
  PostStream stream;
  std::vector<User> users;
};

/// Loads the generated population; `posts` > 0 keeps only that prefix.
bool LoadInputs(const std::string& dir, uint64_t posts, Inputs* in) {
  if (!LoadFollowGraph(dir + "/social.bin", &in->social) ||
      !LoadPostStream(dir + "/stream.bin", &in->stream)) {
    return false;
  }
  if (posts > 0 && posts < in->stream.size()) in->stream.resize(posts);
  in->users = Population(in->social);
  return true;
}

/// Reference hash for a served prefix of `posts` posts, from gen.
bool LookupReference(const std::string& dir, uint64_t posts, uint64_t* hash) {
  std::ifstream file(dir + "/reference.txt");
  uint64_t prefix = 0;
  uint64_t value = 0;
  while (file >> prefix >> value) {
    if (prefix == posts) {
      *hash = value;
      return true;
    }
  }
  return false;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

std::vector<uint64_t> ParseList(const std::string& text) {
  std::vector<uint64_t> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
  }
  return out;
}

// ---------------------------------------------------------------------------
// gen

int Gen(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const auto start = SteadyClock::now();

  SocialGraphOptions graph_options;
  graph_options.num_authors =
      static_cast<uint32_t>(flags.GetInt("authors", kAuthors));
  graph_options.num_communities = 50;
  graph_options.avg_followees = 40.0;
  graph_options.popularity_exponent = 0.8;
  graph_options.seed = seed;
  const FollowGraph social = GenerateSocialGraph(graph_options);

  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto pairs = AllPairsSimilarity(social, authors, 0.05,
                                        /*max_follower_list_size=*/1500);
  const AuthorGraph graph =
      AuthorGraph::FromSimilarities(authors, pairs, kLambdaA);

  StreamGenOptions stream_options;
  stream_options.posts_per_author =
      flags.GetDouble("posts_per_author", kPostsPerAuthor);
  stream_options.cross_author_dup_prob = 0.12;
  stream_options.seed = seed ^ 0x9999;
  const PostStream stream = GenerateStream(graph, SimHasher(), stream_options);

  if (!SaveFollowGraph(social, out + "/social.bin") ||
      !SaveAuthorGraph(graph, out + "/author_graph.bin") ||
      !SavePostStream(stream, out + "/stream.bin")) {
    std::fprintf(stderr, "servebench gen: cannot write to %s\n", out.c_str());
    return 1;
  }

  // Reference timelines. A user's timeline depends on its own
  // subscriptions only, so users are split into groups, each run through
  // its own S_* engine on its own thread. The engine decides each post
  // from earlier posts only, so a prefix's timelines are the full run's
  // timelines cut at the prefix: one pass serves every prefix.
  const auto reference_start = SteadyClock::now();
  const std::vector<User> users = Population(social);
  const DiversityThresholds t = ServeThresholds();
  const unsigned groups =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::vector<User>> group_users(groups);
  for (const User& user : users) group_users[user.id % groups].push_back(user);
  std::vector<std::vector<std::pair<PostId, UserId>>> deliveries(groups);
  {
    std::vector<std::thread> threads;
    for (unsigned g = 0; g < groups; ++g) {
      threads.emplace_back([&, g] {
        auto engine =
            MakeSUserEngine(Algorithm::kCliqueBin, t, graph, group_users[g]);
        (void)RunMultiUser(*engine, stream, &deliveries[g]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const auto reference_end = SteadyClock::now();

  std::string reference;
  uint64_t total_deliveries = 0;
  for (uint64_t prefix : ParseList(flags.GetString("prefixes", "0"))) {
    const uint64_t posts =
        prefix == 0 ? stream.size() : std::min<uint64_t>(prefix, stream.size());
    std::vector<std::vector<PostId>> timelines(users.size());
    total_deliveries = 0;
    for (const auto& group : deliveries) {
      total_deliveries += group.size();
      for (const auto& [post, user] : group) {
        if (post < posts && user < timelines.size()) {
          timelines[user].push_back(post);
        }
      }
    }
    reference += std::to_string(posts) + " " +
                 std::to_string(TimelineHash(timelines)) + "\n";
  }
  if (!WriteFile(out + "/reference.txt", reference)) {
    std::fprintf(stderr, "servebench gen: cannot write reference\n");
    return 1;
  }

  JsonLine json;
  json.Num("posts", static_cast<double>(stream.size()));
  json.Num("users", static_cast<double>(users.size()));
  json.Num("follows", static_cast<double>(NumFollows(users)));
  json.Num("components",
           static_cast<double>(ComputeSharedComponents(t, graph, users).size()));
  json.Num("deliveries", static_cast<double>(total_deliveries));
  json.Num("population_s", Seconds(start, reference_start));
  json.Num("reference_s", Seconds(reference_start, reference_end));
  std::printf("%s\n", json.Done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// drive

/// utime+stime of `pid` in seconds, from /proc/<pid>/stat.
double ProcessCpuSeconds(long pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(file, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::stringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid` in MiB.
double ProcessPeakRssMib(long pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

int Drive(const Flags& flags) {
  const std::string data = flags.GetString("data", "");
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const long server_pid = static_cast<long>(flags.GetInt("server_pid", 0));
  const double rate = flags.GetDouble("rate", 0.0);
  const double flush_ms = flags.GetDouble("flush_ms", 100.0);
  const auto polls_per_flush =
      static_cast<uint32_t>(flags.GetInt("polls_per_flush", 0));
  const bool open_loop = rate > 0.0;
  const bool traced = flags.Has("trace_out");

  Inputs in;
  if (!LoadInputs(data, static_cast<uint64_t>(flags.GetInt("posts", 0)), &in)) {
    std::fprintf(stderr, "servebench drive: cannot load %s\n", data.c_str());
    return 1;
  }
  uint64_t expected_hash = 0;
  if (!LookupReference(data, in.stream.size(), &expected_hash)) {
    std::fprintf(stderr, "servebench drive: no reference for %zu posts\n",
                 in.stream.size());
    return 1;
  }
  const std::vector<Post>& posts = in.stream;
  const std::vector<User>& users = in.users;

  obs::TraceRecorder recorder;
  obs::TraceRecorder* trace = traced ? &recorder : nullptr;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  net::ServeClient client("servebench");
  // Every call counts as attempted; a failed call ends the pass (the
  // client disconnects on any error).
  auto call = [&](bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "servebench drive: %s\n",
                   client.last_error().c_str());
    }
    return ok;
  };

  JsonLine json;
  auto finish = [&](bool correct) {
    json.Raw("correct", correct ? "true" : "false");
    json.Num("attempted", static_cast<double>(attempted));
    json.Num("failed", static_cast<double>(failed));
    std::printf("%s\n", json.Done().c_str());
    if (trace != nullptr &&
        !WriteFile(flags.GetString("trace_out", ""), recorder.ToJson())) {
      std::fprintf(stderr, "servebench drive: cannot write trace\n");
    }
    return 0;
  };

  // Phase 1: setup, up to the ack of the flush right after Seal, so
  // shard build is inside setup_s and outside the ingest timer.
  const auto setup_start = SteadyClock::now();
  {
    obs::TraceScope span(trace, "setup", "net.client");
    net::ServeClient::ConnectInfo info;
    if (!call(client.Connect(port, &info))) return finish(false);
    if (info.sealed) {
      std::fprintf(stderr, "servebench drive: server is not fresh\n");
      ++failed;
      return finish(false);
    }
    for (const User& user : users) {
      for (AuthorId author : user.subscriptions) {
        if (!call(client.Follow(user.id, author))) return finish(false);
      }
    }
    if (!call(client.Seal(users.size()))) return finish(false);
    if (!call(client.Flush())) return finish(false);
  }
  const double setup_s = Seconds(setup_start, SteadyClock::now());
  const double cpu_start = ProcessCpuSeconds(server_pid);

  // Phase 2: ingest. due[i] is when post i was due: its schedule slot in
  // the open loop, the moment the client was ready to send it in the
  // closed loop. Freshness is the ack of the first flush issued after
  // the post was sent, minus its due time.
  std::vector<double> due(posts.size(), 0.0);
  std::vector<double> fresh_ms;
  fresh_ms.reserve(posts.size());
  std::vector<double> late_ms;
  late_ms.reserve(posts.size());
  std::vector<double> flush_ms_samples;
  std::vector<double> poll_ms;
  uint64_t poll_ids = 0;
  double send_seconds = 0.0;
  size_t fresh_from = 0;  // first post not yet covered by a flush ack

  // Incremental poll state (open loop): what each user has seen so far.
  std::vector<uint32_t> seen(users.size(), 0);
  std::vector<std::vector<PostId>> incremental(users.size());
  size_t next_poll_user = 0;

  const auto t0 = SteadyClock::now();
  auto since_t0 = [&]() { return Seconds(t0, SteadyClock::now()); };

  auto flush_barrier = [&](size_t sent) {
    obs::TraceScope span(trace, "flush", "net.client");
    const double start = since_t0();
    if (!call(client.Flush())) return false;
    const double ack = since_t0();
    flush_ms_samples.push_back((ack - start) * 1e3);
    for (size_t j = fresh_from; j < sent; ++j) {
      fresh_ms.push_back((ack - due[j]) * 1e3);
    }
    fresh_from = sent;
    return true;
  };

  auto timed_poll = [&](UserId user, uint32_t since,
                        std::vector<PostId>* ids) {
    obs::TraceScope span(trace, "poll", "net.client");
    const auto start = SteadyClock::now();
    if (!call(client.Poll(user, since, ids))) return false;
    poll_ms.push_back(Seconds(start, SteadyClock::now()) * 1e3);
    poll_ids += ids->size();
    return true;
  };

  const size_t posts_per_flush =
      open_loop ? std::max<size_t>(1, static_cast<size_t>(
                                          std::llround(rate * flush_ms / 1e3)))
                : 0;
  constexpr size_t kSendSpanPosts = 4096;
  uint64_t span_start = trace != nullptr ? recorder.NowNanos() : 0;
  double last_return = 0.0;
  double first_send = 0.0;
  for (size_t i = 0; i < posts.size(); ++i) {
    if (open_loop) {
      due[i] = static_cast<double>(i) / rate;
      const double wait = due[i] - since_t0();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
    const double send_start = since_t0();
    if (i == 0) first_send = last_return = send_start;
    // Generator lateness; in the closed loop a post is due when the
    // previous call returned.
    late_ms.push_back((send_start - (open_loop ? due[i] : last_return)) * 1e3);
    if (!open_loop) due[i] = send_start;
    if (!call(client.SendPost(posts[i]))) return finish(false);
    last_return = since_t0();
    if (trace != nullptr) {
      send_seconds += last_return - send_start;
      if ((i + 1) % kSendSpanPosts == 0 || i + 1 == posts.size()) {
        recorder.AddComplete("send_posts", "net.client", span_start,
                             recorder.NowNanos());
        span_start = recorder.NowNanos();
      }
    }
    if (open_loop && ((i + 1) % posts_per_flush == 0 || i + 1 == posts.size())) {
      if (!flush_barrier(i + 1)) return finish(false);
      for (uint32_t k = 0; k < polls_per_flush; ++k) {
        const UserId user = static_cast<UserId>(next_poll_user);
        next_poll_user = (next_poll_user + 1) % users.size();
        std::vector<PostId> ids;
        if (!timed_poll(user, seen[user], &ids)) return finish(false);
        seen[user] += static_cast<uint32_t>(ids.size());
        incremental[user].insert(incremental[user].end(), ids.begin(),
                                 ids.end());
      }
    }
  }
  if (!open_loop && !flush_barrier(posts.size())) return finish(false);
  const double ingest_end = since_t0();
  const double cpu_end = ProcessCpuSeconds(server_pid);

  // Phase 3: one full poll per user. Timed as the poll workload in the
  // closed loops; in the open loop it is the correctness pass only.
  std::vector<std::vector<PostId>> timelines(users.size());
  {
    obs::TraceScope span(trace, "full_polls", "net.client");
    for (const User& user : users) {
      if (open_loop) {
        if (!call(client.Poll(user.id, 0, &timelines[user.id]))) {
          return finish(false);
        }
      } else if (!timed_poll(user.id, 0, &timelines[user.id])) {
        return finish(false);
      }
    }
  }
  const double rss_mib = ProcessPeakRssMib(server_pid);
  if (!call(client.Shutdown())) return finish(false);

  // Correctness: the served timelines hash to the in-process reference,
  // and every incremental poll returned exactly the next timeline slice.
  bool correct = TimelineHash(timelines) == expected_hash;
  if (!correct) {
    std::fprintf(stderr, "servebench drive: timeline hash mismatch\n");
    ++failed;
  }
  for (size_t u = 0; u < users.size(); ++u) {
    const auto& got = incremental[u];
    if (got.size() > timelines[u].size() ||
        !std::equal(got.begin(), got.end(), timelines[u].begin())) {
      std::fprintf(stderr,
                   "servebench drive: incremental polls of user %zu diverge\n",
                   u);
      ++failed;
      correct = false;
    }
  }

  const double n = static_cast<double>(posts.size());
  const double ingest_s = ingest_end - first_send;
  json.Num("posts", n);
  json.Num("users", static_cast<double>(users.size()));
  json.Num("setup_s", setup_s);
  json.Num("ingest_posts_per_s", n / ingest_s);
  json.Num("fresh_p50_ms", Quantile(fresh_ms, 0.50));
  json.Num("fresh_p99_ms", Quantile(fresh_ms, 0.99));
  json.Num("poll_p50_ms", Quantile(poll_ms, 0.50));
  json.Num("poll_p99_ms", Quantile(poll_ms, 0.99));
  json.Num("polls", static_cast<double>(poll_ms.size()));
  json.Num("server_rss_mb", rss_mib);
  json.Num("server_cpu_us_per_post", (cpu_end - cpu_start) * 1e6 / n);
  json.Num("late_p99_ms", Quantile(late_ms, 0.99));
  json.Num("flush_ms_p50", Quantile(flush_ms_samples, 0.50));
  json.Num("flush_ms_p90", Quantile(flush_ms_samples, 0.90));
  json.Num("flushes", static_cast<double>(flush_ms_samples.size()));
  json.Num("poll_ids_per_poll",
           poll_ms.empty() ? 0.0
                           : static_cast<double>(poll_ids) /
                                 static_cast<double>(poll_ms.size()));
  json.Num("send_us_per_post", send_seconds * 1e6 / n);
  json.Str("kernel", kernels::GetKernelDispatchReport().active);
  return finish(correct);
}

// ---------------------------------------------------------------------------
// layers

int Layers(const Flags& flags) {
  const std::string data = flags.GetString("data", "");
  const std::string scratch = flags.GetString("scratch", "");
  const std::string wal_sync = flags.GetString("wal_sync", "none");
  const auto flush_posts = static_cast<size_t>(flags.GetInt("flush_posts", 0));

  Inputs in;
  AuthorGraph graph;
  if (!LoadInputs(data, static_cast<uint64_t>(flags.GetInt("posts", 0)), &in) ||
      !LoadAuthorGraph(data + "/author_graph.bin", &graph)) {
    std::fprintf(stderr, "servebench layers: cannot load %s\n", data.c_str());
    return 1;
  }
  const PostStream& stream = in.stream;
  const std::vector<User>& users = in.users;
  const double n = static_cast<double>(stream.size());
  const DiversityThresholds t = ServeThresholds();
  obs::TraceRecorder recorder;
  JsonLine json;
  auto ms_since = [](SteadyClock::time_point start) {
    return Seconds(start, SteadyClock::now()) * 1e3;
  };

  // net.proto: the post frame codec the client and dispatcher run.
  {
    std::string wire;
    auto start = SteadyClock::now();
    {
      obs::TraceScope span(&recorder, "proto.encode", "net");
      net::NetMessage message;
      message.type = net::MsgType::kPost;
      for (const Post& post : stream) {
        message.post = post;
        net::AppendMessage(message, &wire);
      }
    }
    const double encode_ms = ms_since(start);
    start = SteadyClock::now();
    size_t decoded = 0;
    {
      obs::TraceScope span(&recorder, "proto.decode", "net");
      net::NetMessage message;
      size_t offset = 0;
      size_t next = 0;
      while (offset < wire.size() &&
             net::DecodeMessage(wire, offset, &message, &next) ==
                 net::DecodeStatus::kOk) {
        offset = next;
        ++decoded;
      }
    }
    const double decode_ms = ms_since(start);
    if (decoded != stream.size()) {
      std::fprintf(stderr, "servebench layers: decoded %zu of %zu posts\n",
                   decoded, stream.size());
      return 1;
    }
    json.Num("net.proto.encode_ns_per_post", encode_ms * 1e6 / n);
    json.Num("net.proto.decode_ns_per_post", decode_ms * 1e6 / n);
    json.Num("net.proto.bytes_per_post", static_cast<double>(wire.size()) / n);
  }

  // author: shared components and their clique covers (the work the
  // server does at seal).
  std::vector<SharedComponent> components;
  {
    auto start = SteadyClock::now();
    {
      obs::TraceScope span(&recorder, "author.components", "author");
      components = ComputeSharedComponents(t, graph, users);
    }
    json.Num("author.components_ms", ms_since(start));
    start = SteadyClock::now();
    size_t cliques = 0;
    {
      obs::TraceScope span(&recorder, "author.cover", "author");
      for (const SharedComponent& c : components) {
        cliques += CliqueCover::Greedy(graph.InducedSubgraph(c.authors))
                       .num_cliques();
      }
    }
    json.Num("author.cover_ms", ms_since(start));
    json.Num("author.components", static_cast<double>(components.size()));
    json.Num("author.cliques", static_cast<double>(cliques));
  }

  // net.placement: the dispatcher's author -> shard routing.
  {
    obs::TraceScope span(&recorder, "placement", "net");
    const net::PlacementRing ring(kShards);
    std::vector<std::vector<uint32_t>> author_shards(graph.num_vertices());
    for (const SharedComponent& c : components) {
      const uint32_t shard = ring.ShardFor(net::ComponentKey(c.authors));
      for (AuthorId a : c.authors) {
        if (a >= author_shards.size()) author_shards.resize(a + 1);
        auto& owners = author_shards[a];
        if (std::find(owners.begin(), owners.end(), shard) == owners.end()) {
          owners.push_back(shard);
        }
      }
    }
    std::vector<double> per_shard(kShards, 0.0);
    double copies = 0.0;
    for (const Post& post : stream) {
      if (post.author >= author_shards.size()) continue;
      for (uint32_t shard : author_shards[post.author]) {
        per_shard[shard] += 1.0;
        copies += 1.0;
      }
    }
    const double max_shard = *std::max_element(per_shard.begin(), per_shard.end());
    json.Num("net.placement.shards_per_post", copies / n);
    json.Num("net.placement.post_skew",
             copies > 0 ? max_shard / (copies / kShards) : 0.0);
  }

  // core: the S_* engine on one thread, OfferBatch in serve-sized bursts.
  auto offer_all = [&](MultiUserEngine& engine, const PostStream& posts,
                       uint64_t* deliveries) {
    std::vector<MultiUserEngine::BatchDelivery> batch;
    for (size_t i = 0; i < posts.size(); i += kOfferBatch) {
      const size_t len = std::min(kOfferBatch, posts.size() - i);
      *deliveries += engine.OfferBatch(
          std::span<const Post>(posts.data() + i, len), &batch);
    }
  };
  {
    auto start = SteadyClock::now();
    std::unique_ptr<MultiUserEngine> engine;
    {
      obs::TraceScope span(&recorder, "engine.build", "core");
      engine = MakeSUserEngine(Algorithm::kCliqueBin, t, graph, users);
    }
    json.Num("core.engine.build_ms", ms_since(start));
    uint64_t deliveries = 0;
    start = SteadyClock::now();
    {
      obs::TraceScope span(&recorder, "engine.offer", "core");
      offer_all(*engine, stream, &deliveries);
    }
    json.Num("core.engine.offer_us_per_post", ms_since(start) * 1e3 / n);
    const IngestStats stats = engine->AggregateStats();
    json.Num("core.engine.comparisons_per_post",
             static_cast<double>(stats.comparisons) / n);
    json.Num("core.engine.components_per_post",
             static_cast<double>(stats.posts_in) / n);
    json.Num("core.engine.deliveries_per_post",
             static_cast<double>(deliveries) / n);
    json.Num("core.engine.admit_ratio",
             stats.posts_in > 0 ? static_cast<double>(stats.posts_out) /
                                      static_cast<double>(stats.posts_in)
                                : 0.0);
    json.Num("core.engine.peak_mb",
             static_cast<double>(stats.peak_bytes) / (1024.0 * 1024.0));
  }
  {
    const PostStream prefix(
        stream.begin(),
        stream.begin() + static_cast<long>(std::min(kAlgorithmPrefix, stream.size())));
    const std::pair<Algorithm, const char*> algorithms[] = {
        {Algorithm::kUniBin, "engine.unibin"},
        {Algorithm::kNeighborBin, "engine.neighborbin"},
        {Algorithm::kCliqueBin, "engine.cliquebin"}};
    for (const auto& [algorithm, name] : algorithms) {
      auto engine = MakeSUserEngine(algorithm, t, graph, users);
      uint64_t deliveries = 0;
      const auto start = SteadyClock::now();
      {
        obs::TraceScope span(&recorder, name, "core");
        offer_all(*engine, prefix, &deliveries);
      }
      json.Num(std::string("core.") + name + ".offer_us_per_post",
               ms_since(start) * 1e3 / static_cast<double>(prefix.size()));
    }
  }

  // runtime: the in-process sharded S_* run, the ceiling of the served
  // ingest rate on the same shard count.
  {
    obs::TraceScope span(&recorder, "runtime.sharded", "runtime");
    const ShardedRunResult r =
        RunShardedSUser(Algorithm::kCliqueBin, t, graph, users, stream,
                        static_cast<int>(kShards), nullptr);
    json.Num("runtime.sharded.posts_per_s", n / (r.wall_ms / 1e3));
  }

  // dur: a WAL replica on the data directory's filesystem, written the
  // way a shard worker writes it under `wal_sync`: every record appended,
  // fsynced after each append ("always") or at each flush barrier.
  {
    const bool always = wal_sync == "always";
    std::filesystem::remove_all(scratch);
    obs::MetricsRegistry registry;
    dur::WalOptions options;
    options.dir = scratch + "/shard";
    options.bytes_counter = registry.GetCounter("bytes", true);
    options.fsync_counter = registry.GetCounter("fsyncs", true);
    dur::WalWriter wal(options);
    if (!wal.Open(0)) {
      std::fprintf(stderr, "servebench layers: cannot open WAL replica\n");
      return 1;
    }
    std::vector<double> sync_us;
    double append_s = 0.0;
    auto timed_sync = [&]() {
      const auto start = SteadyClock::now();
      const bool ok = wal.Sync();
      sync_us.push_back(Seconds(start, SteadyClock::now()) * 1e6);
      return ok;
    };
    {
      obs::TraceScope span(&recorder, "wal.shard", "dur");
      for (size_t i = 0; i < stream.size(); ++i) {
        const std::string record = dur::EncodePostRecord(stream[i]);
        const auto start = SteadyClock::now();
        const bool ok = wal.Append(record);
        append_s += Seconds(start, SteadyClock::now());
        const bool at_flush =
            i + 1 == stream.size() || (flush_posts > 0 && (i + 1) % flush_posts == 0);
        if (!ok || ((always || at_flush) && !timed_sync())) {
          std::fprintf(stderr, "servebench layers: WAL replica write failed\n");
          return 1;
        }
      }
    }
    json.Num("dur.wal.append_us", append_s * 1e6 / n);
    json.Num("dur.wal.sync_us.p50", Quantile(sync_us, 0.50));
    json.Num("dur.wal.sync_us.p99", Quantile(sync_us, 0.99));
    json.Num("dur.wal.fsyncs_per_post",
             static_cast<double>(options.fsync_counter->value()) / n);
    json.Num("dur.wal.bytes_per_post",
             static_cast<double>(options.bytes_counter->value()) / n);
    (void)wal.Close();

    // Control WAL: one record per follow under the same policy, plus the
    // seal record, which the server always syncs.
    std::unique_ptr<dur::SyncPolicy> policy = dur::MakeSyncPolicy(wal_sync);
    dur::WalOptions control_options;
    control_options.dir = scratch + "/control";
    control_options.sync = policy.get();
    control_options.fsync_counter = registry.GetCounter("control_fsyncs", true);
    dur::WalWriter control(control_options);
    uint64_t follows = 0;
    {
      obs::TraceScope span(&recorder, "wal.control", "dur");
      bool ok = policy != nullptr && control.Open(0);
      for (const User& user : users) {
        for (AuthorId author : user.subscriptions) {
          ok = ok && control.Append(net::EncodeFollowRecord(user.id, author));
          ++follows;
        }
      }
      ok = ok && control.Append(net::EncodeSealRecord(users.size())) &&
           control.Sync() && control.Close();
      if (!ok) {
        std::fprintf(stderr, "servebench layers: control WAL replica failed\n");
        return 1;
      }
    }
    json.Num("dur.control.fsyncs_per_follow",
             static_cast<double>(control_options.fsync_counter->value()) /
                 static_cast<double>(follows));
    std::filesystem::remove_all(scratch);
  }

  json.Str("kernel", kernels::GetKernelDispatchReport().active);
  std::printf("%s\n", json.Done().c_str());
  if (flags.Has("trace_out") &&
      !WriteFile(flags.GetString("trace_out", ""), recorder.ToJson())) {
    std::fprintf(stderr, "servebench layers: cannot write trace\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench gen|drive|layers --flag=value...\n");
    return 2;
  }
  const std::string command = argv[1];
  Flags flags(argc - 1, argv + 1);
  if (command == "gen") return Gen(flags);
  if (command == "drive") return Drive(flags);
  if (command == "layers") return Layers(flags);
  std::fprintf(stderr, "servebench: unknown subcommand %s\n", command.c_str());
  return 2;
}
