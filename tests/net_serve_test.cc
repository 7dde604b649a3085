// In-process serving-layer tests (src/net/server + src/net/client): a
// real Server on an ephemeral loopback port, driven by ServeClient.
// The core property is exactness — for any shard count, the timelines
// served over the socket equal the sequential S_* engine's per-user
// deliveries byte for byte — plus the poll contract (a poll sees every
// post sent before it, flushed or not, and `since` selects the suffix),
// the flush contract (its ack means every shard decided), the client's
// send bound (posts leave it within a page), the shard count's range,
// durability (graceful stop, restart at another shard count, resend,
// dedupe, refused writes when the WAL fails, the WAL's record order,
// follows synced once at the seal),
// the gap-encoded timelines at every varint width, the introspection of
// the shards' shared bins (kept live while a client stays busy), of
// each flush's stages and of a stalled watchdog task (named by /healthz
// even while a flush waits on it), the bound of a shard's inbox and a
// worker stuck in a decision, and protocol error handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/firehose.h"

namespace firehose {
namespace net {
namespace {

struct Workload {
  AuthorGraph graph;
  PostStream stream;
  std::vector<User> users;
};

/// Small but structurally rich workload: community-clustered authors so
/// components are shared, §6.3 user population (every author with a
/// nonempty followee set subscribes to it).
Workload MakeWorkload() {
  Workload w;
  SocialGraphOptions social_options;
  social_options.num_authors = 120;
  social_options.num_communities = 5;
  social_options.avg_followees = 12.0;
  social_options.seed = 20260808;
  const FollowGraph social = GenerateSocialGraph(social_options);

  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto similarities = AllPairsSimilarity(social, authors, 0.05);
  w.graph = AuthorGraph::FromSimilarities(authors, similarities, 0.7);

  StreamGenOptions stream_options;
  stream_options.posts_per_author = 6.0;
  stream_options.seed = 11;
  const SimHasher hasher;
  w.stream = GenerateStream(w.graph, hasher, stream_options);

  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    const auto& followees = social.Followees(a);
    if (followees.empty()) continue;
    w.users.emplace_back(static_cast<UserId>(w.users.size()), followees);
  }
  return w;
}

/// Per-user expected timelines from the sequential S_* engine.
std::vector<std::vector<PostId>> ExpectedTimelines(const Workload& w,
                                                   Algorithm algorithm,
                                                   DiversityThresholds t) {
  auto engine = MakeSUserEngine(algorithm, t, w.graph, w.users);
  std::vector<std::pair<PostId, UserId>> deliveries;
  (void)RunMultiUser(*engine, w.stream, &deliveries);
  std::vector<std::vector<PostId>> timelines(w.users.size());
  for (const auto& [post, user] : deliveries) timelines[user].push_back(post);
  return timelines;
}

/// The equivalence tests (TEST_P) run once per algorithm, so the served
/// tables are built both with a clique cover (CliqueBin) and without one.
class NetServeTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload();
    ASSERT_GT(workload_.users.size(), 50u);
    ASSERT_GT(workload_.stream.size(), 300u);
    // One directory per test: ctest runs the discovered tests in parallel.
    data_dir_ = std::string("net_serve_test_data_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(data_dir_.begin(), data_dir_.end(), '/', '_');
    std::filesystem::remove_all(data_dir_);
  }

  void TearDown() override { std::filesystem::remove_all(data_dir_); }

  /// Follows + seals the §6.3 population through `client`.
  void SealUsers(ServeClient& client) {
    for (const User& user : workload_.users) {
      for (const AuthorId author : user.subscriptions) {
        ASSERT_TRUE(client.Follow(user.id, author)) << client.last_error();
      }
    }
    ASSERT_TRUE(client.Seal(workload_.users.size())) << client.last_error();
  }

  void SendStream(ServeClient& client) {
    for (const Post& post : workload_.stream) {
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
    }
    ASSERT_TRUE(client.Flush()) << client.last_error();
  }

  void ExpectServedTimelinesMatch(ServeClient& client,
                                  const std::vector<std::vector<PostId>>&
                                      expected) {
    for (const User& user : workload_.users) {
      std::vector<PostId> served;
      ASSERT_TRUE(client.Poll(user.id, 0, &served)) << client.last_error();
      EXPECT_EQ(served, expected[user.id]) << "user " << user.id;
    }
  }

  /// Polls each of `users` at every `since` from 0 to one past the end
  /// of its expected timeline, and once far past it.
  void ExpectEverySuffixMatches(
      ServeClient& client, const std::vector<UserId>& users,
      const std::vector<std::vector<PostId>>& expected) {
    for (const UserId user : users) {
      const auto& want = expected[user];
      const uint32_t size = static_cast<uint32_t>(want.size());
      for (uint32_t since = 0; since <= size + 1; ++since) {
        std::vector<PostId> suffix;
        ASSERT_TRUE(client.Poll(user, since, &suffix)) << client.last_error();
        EXPECT_EQ(suffix, std::vector<PostId>(
                              want.begin() + std::min(since, size), want.end()))
            << "user " << user << " since " << since;
      }
      std::vector<PostId> past_end;
      ASSERT_TRUE(client.Poll(user, size + 10, &past_end));
      EXPECT_TRUE(past_end.empty());
    }
  }

  ServeOptions Options(uint32_t num_shards, const std::string& data_dir = "",
                       Algorithm algorithm = Algorithm::kCliqueBin,
                       const std::string& wal_sync = "none") {
    ServeOptions options;
    options.num_shards = num_shards;
    options.algorithm = algorithm;
    options.data_dir = data_dir;
    options.wal_sync = wal_sync;  // graceful Stop closes cleanly regardless
    return options;
  }

  std::string data_dir_;
  Workload workload_;
};

INSTANTIATE_TEST_SUITE_P(Algorithms, NetServeTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

TEST_P(NetServeTest, ServedTimelinesEqualSequentialEngineOneShard) {
  Server server(Options(1, "", GetParam()), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
  EXPECT_EQ(info.num_shards, 1u);
  EXPECT_FALSE(info.sealed);

  SealUsers(client);
  SendStream(client);
  const auto expected =
      ExpectedTimelines(workload_, GetParam(), DiversityThresholds{});
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  server.Stop();
}

TEST_P(NetServeTest, ServedTimelinesEqualSequentialEngineThreeShards) {
  Server server(Options(3, "", GetParam()), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
  EXPECT_EQ(info.num_shards, 3u);

  SealUsers(client);
  SendStream(client);
  const auto expected =
      ExpectedTimelines(workload_, GetParam(), DiversityThresholds{});
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  server.Stop();

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.posts_received, workload_.stream.size());
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_GT(stats.deliveries, 0u);
}

/// The unsigned integers of the JSON array `"key":[...]` in `json`;
/// empty when the key is missing.
std::vector<uint64_t> JsonArray(const std::string& json,
                                const std::string& key) {
  std::vector<uint64_t> values;
  const std::string open = "\"" + key + "\":[";
  const size_t at = json.find(open);
  if (at == std::string::npos) return values;
  const size_t begin = at + open.size();
  std::istringstream items(json.substr(begin, json.find(']', begin) - begin));
  for (std::string item; std::getline(items, item, ',');) {
    values.push_back(std::stoull(item));
  }
  return values;
}

/// The value of the gauge `name` in a /varz JSON scrape; fails the test
/// when it is missing.
int64_t GaugeValue(const std::string& varz, const std::string& name) {
  const std::string key = "\"" + name + "\": {\"value\": ";
  const size_t at = varz.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << varz;
  if (at == std::string::npos) return -1;
  return std::stoll(varz.substr(at + key.size()));
}

/// The value of the counter `name` in a /varz JSON scrape; fails the
/// test when it is missing.
uint64_t CounterValue(const std::string& varz, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = varz.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << varz;
  if (at == std::string::npos) return 0;
  return std::stoull(varz.substr(at + key.size()));
}

/// Field `field` of the histogram `name` in a /varz JSON scrape; fails
/// the test when the histogram is missing.
double HistogramField(const std::string& varz, const std::string& name,
                      const std::string& field) {
  const size_t at = varz.find("\"" + name + "\": {");
  EXPECT_NE(at, std::string::npos) << name << " missing from " << varz;
  if (at == std::string::npos) return -1;
  const std::string key = "\"" + field + "\": ";
  const size_t value = varz.find(key, at);
  EXPECT_NE(value, std::string::npos) << name << " has no " << field;
  if (value == std::string::npos) return -1;
  return std::stod(varz.substr(value + key.size()));
}

/// Waits until a whole publication of `debug` began after this call: the
/// count moves when the metrics of a publication land, before its
/// status, so two more publications mean one whole one began after.
void AwaitFreshPublication(const obs::DebugState& debug) {
  const uint64_t published = debug.publish_count();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (debug.publish_count() < published + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(debug.publish_count(), published + 2);
}

TEST_F(NetServeTest, StatusAndVarzReportTheSharedWindow) {
  obs::DebugState debug;
  ServeOptions options = Options(2, data_dir_);
  options.debug = &debug;
  {
    Server server(options, &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);

    // The flush ack means every shard decided every post, and the
    // dispatcher publishes at each idle tick.
    AwaitFreshPublication(debug);
    const std::vector<uint64_t> windows =
        JsonArray(debug.status_json(), "window_posts");
    ASSERT_EQ(windows.size(), 2u) << debug.status_json();
    EXPECT_GT(windows[0] + windows[1], 0u) << debug.status_json();

    const std::string varz = debug.varz_json();
    const uint64_t comparisons = CounterValue(varz, "serve.comparisons");
    EXPECT_GT(comparisons, 0u);
    EXPECT_EQ(comparisons, server.stats().comparisons);

    // Each delivery is one gap of a uint32 id: 1 to 5 LEB128 bytes.
    const std::vector<uint64_t> bytes =
        JsonArray(debug.status_json(), "timeline_bytes");
    ASSERT_EQ(bytes.size(), 2u) << debug.status_json();
    const uint64_t deliveries = CounterValue(varz, "serve.deliveries");
    EXPECT_GT(deliveries, 0u);
    EXPECT_GE(bytes[0] + bytes[1], deliveries) << debug.status_json();
    EXPECT_LE(bytes[0] + bytes[1], 5 * deliveries) << debug.status_json();
    // Every stored post sits in at least one bin, and each ring slot
    // takes 12 bytes.
    const std::vector<uint64_t> entries =
        JsonArray(debug.status_json(), "bin_entries");
    const std::vector<uint64_t> bins =
        JsonArray(debug.status_json(), "bin_bytes");
    ASSERT_EQ(entries.size(), 2u) << debug.status_json();
    ASSERT_EQ(bins.size(), 2u) << debug.status_json();
    for (size_t shard = 0; shard < 2; ++shard) {
      EXPECT_GE(entries[shard], windows[shard])
          << "shard " << shard << ": " << debug.status_json();
      EXPECT_GE(bins[shard], 12 * entries[shard])
          << "shard " << shard << ": " << debug.status_json();
    }
    // The live seal timed both of its steps.
    EXPECT_GT(GaugeValue(varz, "serve.seal.components_us"), 0) << varz;
    EXPECT_GT(GaugeValue(varz, "serve.seal.tables_us"), 0) << varz;
    client.Disconnect();
    server.Stop();
  }

  // A restart replays the seal from the WAL and times it the same way.
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_TRUE(server.sealed());
  AwaitFreshPublication(debug);
  const std::string varz = debug.varz_json();
  EXPECT_GT(GaugeValue(varz, "serve.seal.components_us"), 0) << varz;
  EXPECT_GT(GaugeValue(varz, "serve.seal.tables_us"), 0) << varz;
  server.Stop();
}

TEST_F(NetServeTest, FollowsAreSyncedOnceAtTheSeal) {
  // Under --wal_sync=always each post is synced on its own, but a follow
  // is not: the seal's sync, which is always made, makes every follow
  // before it durable. So F follows, the seal and a flush take two
  // fsyncs, the seal's and the flush's, whatever F is.
  std::vector<std::pair<UserId, AuthorId>> follows;
  for (const User& user : workload_.users) {
    for (const AuthorId author : user.subscriptions) {
      follows.emplace_back(user.id, author);
    }
  }
  ASSERT_GT(follows.size(), 100u);
  const auto fsyncs_to_seal = [&](size_t count, const std::string& dir) {
    obs::DebugState debug;
    ServeOptions options = Options(2, dir, Algorithm::kCliqueBin, "always");
    options.debug = &debug;
    Server server(options, &workload_.graph);
    std::string error;
    EXPECT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    EXPECT_TRUE(client.Connect(server.port())) << client.last_error();
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(client.Follow(follows[i].first, follows[i].second))
          << client.last_error();
    }
    EXPECT_TRUE(client.Seal(workload_.users.size())) << client.last_error();
    EXPECT_TRUE(client.Flush()) << client.last_error();
    AwaitFreshPublication(debug);
    const uint64_t fsyncs =
        CounterValue(debug.varz_json(), "serve.wal_fsyncs");
    client.Disconnect();
    server.Stop();
    return fsyncs;
  };
  EXPECT_EQ(fsyncs_to_seal(1, data_dir_ + "/one"), 2u);
  EXPECT_EQ(fsyncs_to_seal(follows.size(), data_dir_ + "/all"), 2u);

  // A restart replays those follows and the seal and serves the
  // sequential engine's timelines, and each post is synced on its own.
  obs::DebugState debug;
  ServeOptions options =
      Options(2, data_dir_ + "/all", Algorithm::kCliqueBin, "always");
  options.debug = &debug;
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_TRUE(server.sealed());
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SendStream(client);
  ExpectServedTimelinesMatch(
      client, ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                DiversityThresholds{}));
  AwaitFreshPublication(debug);
  const uint64_t posts = server.stats().posts_ingested;
  EXPECT_GT(posts, 0u);
  EXPECT_EQ(CounterValue(debug.varz_json(), "serve.wal_fsyncs"), posts + 1);
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, BusyConnectionStillRepublishesIntrospection) {
  // Back-to-back polls never leave a read waiting kDispatchPollMs, so the
  // idle-tick publication never runs while this connection lasts.
  obs::DebugState debug;
  ServeOptions options = Options(2);
  options.debug = &debug;
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  ASSERT_TRUE(client.Flush()) << client.last_error();

  const uint64_t published = debug.publish_count();
  const auto busy_until = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(5 * kDispatchPollMs);
  for (size_t i = 0; std::chrono::steady_clock::now() < busy_until; ++i) {
    const UserId user = static_cast<UserId>(i % workload_.users.size());
    std::vector<PostId> timeline;
    ASSERT_TRUE(client.Poll(user, 0, &timeline)) << client.last_error();
  }
  // Checked at once, before the connection idles long enough to time out.
  EXPECT_GT(debug.publish_count(), published);
  EXPECT_EQ(GaugeValue(debug.varz_json(), "serve.sealed"), 1);
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, VarzTimesTheStagesOfEveryFlush) {
  // Each flush records its WAL sync, its wait until every shard decided,
  // and the most posts a shard had routed but not decided on arrival:
  // at most the posts sent since the last flush, which drained them.
  constexpr size_t kFlushes = 5;
  obs::DebugState debug;
  ServeOptions options = Options(2, data_dir_);
  options.debug = &debug;
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  const size_t chunk = workload_.stream.size() / kFlushes;
  for (size_t flush = 0; flush < kFlushes; ++flush) {
    for (size_t i = flush * chunk; i < (flush + 1) * chunk; ++i) {
      ASSERT_TRUE(client.SendPost(workload_.stream[i])) << client.last_error();
    }
    ASSERT_TRUE(client.Flush()) << client.last_error();
  }

  AwaitFreshPublication(debug);
  const std::string varz = debug.varz_json();
  for (const char* name :
       {"serve.flush.sync_us", "serve.flush.drain_us", "serve.flush.backlog"}) {
    EXPECT_EQ(HistogramField(varz, name, "count"), kFlushes) << name;
  }
  EXPECT_LE(HistogramField(varz, "serve.flush.backlog", "max"), chunk);
  client.Disconnect();
  server.Stop();
}

/// Waits until `watchdog` lists a task named `name`.
void AwaitTask(const obs::Watchdog& watchdog, std::string_view name) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  obs::Watchdog::TaskInfo tasks[obs::Watchdog::kMaxTasks];
  for (;;) {
    const int count = watchdog.SnapshotTasks(tasks, obs::Watchdog::kMaxTasks);
    for (int i = 0; i < count; ++i) {
      if (tasks[i].name == name) return;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << name << " never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(NetServeTest, HealthzNamesAStalledWatchdogTask) {
  // A task with a post queued and no progress for the stall time trips
  // at the watchdog's next Poll, and /healthz, which reads the watchdog
  // it was given, answers 503 until the task moves and a Poll clears it.
  constexpr uint64_t kStallNanos = 5ull * 1000 * 1000 * 1000;
  obs::ManualClock clock;
  obs::Watchdog watchdog(kStallNanos, &clock);
  obs::DebugServer::Options debug_options;
  debug_options.watchdog = &watchdog;
  obs::DebugServer debug_server(debug_options);
  ASSERT_TRUE(debug_server.Start(/*port=*/0));
  ServeOptions options = Options(1);
  options.debug = debug_server.state();
  options.watchdog = &watchdog;
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // The dispatcher reads the clock once, to register its own task. A
  // ManualClock is not thread-safe, so only this thread moves it, after.
  ASSERT_NO_FATAL_FAILURE(AwaitTask(watchdog, "serve-dispatch"));
  const int task = watchdog.RegisterTask("stalled-shard");
  ASSERT_GE(task, 0);
  watchdog.SetQueueDepth(task, 1);
  clock.AdvanceNanos(kStallNanos);
  EXPECT_EQ(watchdog.Poll(), 1);

  AwaitFreshPublication(*debug_server.state());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "stalled-shard stalled (depth 1, progress 0)\n");

  watchdog.ReportProgress(task, 1);
  EXPECT_EQ(watchdog.Poll(), 0);
  AwaitFreshPublication(*debug_server.state());
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  server.Stop();
  debug_server.Stop();
}

/// A clock that holds every caller of NowNanos until Release. As a
/// FlightRecorder's clock it stops a shard worker inside the offer span
/// of its first decision, after the post left the inbox.
class GateClock final : public obs::Clock {
 public:
  uint64_t NowNanos() const override {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return ++now_;
  }

  /// True once a caller is held; false after 10 s without one.
  bool AwaitHeld() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return held_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool held_ = false;
  bool released_ = false;
  mutable uint64_t now_ = 0;
};

/// Releases `gate` when it leaves scope; declared after the server, so a
/// failed assertion cannot leave Stop joining a held worker forever.
struct ReleaseAtExit {
  GateClock* gate;
  ~ReleaseAtExit() { gate->Release(); }
};

/// `count` posts by authors some user follows, ids 0..count-1 in time
/// order, so the dispatcher routes every one: the workload's stream
/// generated longer, less the posts nobody follows.
PostStream FollowedPosts(const Workload& w, size_t count) {
  std::set<AuthorId> followed;
  for (const User& user : w.users) {
    followed.insert(user.subscriptions.begin(), user.subscriptions.end());
  }
  StreamGenOptions options;
  options.posts_per_author = 80.0;
  options.seed = 11;
  const SimHasher hasher;
  PostStream posts;
  for (Post& post : GenerateStream(w.graph, hasher, options)) {
    if (posts.size() == count) break;
    if (followed.count(post.author) == 0) continue;
    post.id = static_cast<PostId>(posts.size());
    posts.push_back(std::move(post));
  }
  return posts;
}

TEST_F(NetServeTest, AFullInboxHoldsTheDispatcherUntilItsWorkerMoves) {
  // A shard's inbox holds at most 4,096 routed posts, and the dispatcher
  // waits while it is full. Hold the one worker inside its first
  // decision, with a batch of one post: the dispatcher then fills the
  // inbox, receives one post more, which it cannot place, and reads
  // nothing after it. Released, the worker decides every post in order.
  constexpr size_t kPosts = 5000;
  constexpr uint64_t kInboxBound = 4096;
  workload_.stream = FollowedPosts(workload_, kPosts);
  ASSERT_EQ(workload_.stream.size(), kPosts);
  // A frame of a page leaves the client on its own.
  workload_.stream[0].text.assign(kFlushThresholdBytes, 'x');
  GateClock gate;
  const auto flight = std::make_unique<obs::FlightRecorder>(&gate);
  ServeOptions options = Options(1);
  options.flight = flight.get();
  Server server(options, &workload_.graph);
  const ReleaseAtExit release{&gate};
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  ASSERT_TRUE(client.SendPost(workload_.stream[0])) << client.last_error();
  ASSERT_TRUE(gate.AwaitHeld());
  ASSERT_EQ(server.stats().posts_received, 1u);  // the held batch

  bool sent = true;
  uint64_t ingested = 0;
  std::thread sender([&] {
    for (size_t i = 1; i < kPosts && sent; ++i) {
      sent = client.SendPost(workload_.stream[i]);
    }
    sent = sent && client.Flush(&ingested);
  });
  const uint64_t bound = 1 + kInboxBound + 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().posts_received < bound &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Long enough for the rest of the stream to arrive, were it read.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.stats().posts_received, bound);
  gate.Release();
  sender.join();
  ASSERT_TRUE(sent) << client.last_error();
  EXPECT_EQ(ingested, kPosts);
  ExpectServedTimelinesMatch(
      client, ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                DiversityThresholds{}));
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, AWorkerStuckInADecisionTripsTheWatchdog) {
  // A worker held inside a decision has taken the post out of its inbox,
  // but has not decided it: its task keeps a depth of 1, so once the
  // stall time passes without progress the watchdog trips, and /healthz
  // names the shard until the worker moves and the watchdog polls.
  constexpr uint64_t kStallNanos = 5ull * 1000 * 1000 * 1000;
  obs::ManualClock clock;
  obs::Watchdog watchdog(kStallNanos, &clock);
  obs::DebugServer::Options debug_options;
  debug_options.watchdog = &watchdog;
  obs::DebugServer debug_server(debug_options);
  ASSERT_TRUE(debug_server.Start(/*port=*/0));
  GateClock gate;
  const auto flight = std::make_unique<obs::FlightRecorder>(&gate);
  ServeOptions options = Options(1);
  options.debug = debug_server.state();
  options.watchdog = &watchdog;
  options.flight = flight.get();
  Server server(options, &workload_.graph);
  const ReleaseAtExit release{&gate};
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  ASSERT_TRUE(client.Flush()) << client.last_error();  // spawns the worker
  // Each task reads the clock once, to register. A ManualClock is not
  // thread-safe, so only this thread moves it, after both did.
  ASSERT_NO_FATAL_FAILURE(AwaitTask(watchdog, "serve-dispatch"));
  ASSERT_NO_FATAL_FAILURE(AwaitTask(watchdog, "serve-shard"));
  Post post = FollowedPosts(workload_, 1).at(0);
  post.text.assign(kFlushThresholdBytes, 'x');  // leaves the client alone
  ASSERT_TRUE(client.SendPost(post)) << client.last_error();
  ASSERT_TRUE(gate.AwaitHeld());

  EXPECT_EQ(watchdog.Poll(), 0);
  clock.AdvanceNanos(kStallNanos);
  EXPECT_EQ(watchdog.Poll(), 1);
  AwaitFreshPublication(*debug_server.state());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "serve-shard stalled (depth 1, progress 0)\n");

  gate.Release();
  ASSERT_TRUE(client.Flush()) << client.last_error();
  EXPECT_EQ(watchdog.Poll(), 0);
  AwaitFreshPublication(*debug_server.state());
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  client.Disconnect();
  server.Stop();
  debug_server.Stop();
}

TEST_F(NetServeTest, HealthzNamesAShardStalledUnderAWaitingFlush) {
  // A flush waits until every shard decided, so while its worker is held
  // inside a decision the dispatcher publishes nothing. /healthz reads
  // the watchdog when asked, so it still names the stalled shard.
  constexpr uint64_t kStallNanos = 5ull * 1000 * 1000 * 1000;
  obs::ManualClock clock;
  obs::Watchdog watchdog(kStallNanos, &clock);
  obs::DebugServer::Options debug_options;
  debug_options.watchdog = &watchdog;
  obs::DebugServer debug_server(debug_options);
  ASSERT_TRUE(debug_server.Start(/*port=*/0));
  GateClock gate;
  const auto flight = std::make_unique<obs::FlightRecorder>(&gate);
  ServeOptions options = Options(1);
  options.debug = debug_server.state();
  options.watchdog = &watchdog;
  options.flight = flight.get();
  Server server(options, &workload_.graph);
  const ReleaseAtExit release{&gate};
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  ASSERT_TRUE(client.Flush()) << client.last_error();  // spawns the worker
  // Each task reads the clock once, to register. A ManualClock is not
  // thread-safe, so only this thread moves it, after both did.
  ASSERT_NO_FATAL_FAILURE(AwaitTask(watchdog, "serve-dispatch"));
  ASSERT_NO_FATAL_FAILURE(AwaitTask(watchdog, "serve-shard"));
  Post post = FollowedPosts(workload_, 1).at(0);
  post.text.assign(kFlushThresholdBytes, 'x');  // leaves the client alone
  ASSERT_TRUE(client.SendPost(post)) << client.last_error();
  ASSERT_TRUE(gate.AwaitHeld());

  // No assertion may return while the flusher runs: it must be joined.
  bool flushed = false;
  std::thread flusher([&] { flushed = client.Flush(); });
  // Long enough for the flush to reach the dispatcher's wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  clock.AdvanceNanos(kStallNanos);
  EXPECT_EQ(watchdog.Poll(), 1);
  int status = 0;
  std::string body;
  EXPECT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "serve-shard stalled (depth 1, progress 0)\n");

  gate.Release();
  flusher.join();
  ASSERT_TRUE(flushed) << client.last_error();
  EXPECT_EQ(watchdog.Poll(), 0);
  ASSERT_TRUE(HttpGet(debug_server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  client.Disconnect();
  server.Stop();
  debug_server.Stop();
}

TEST_F(NetServeTest, GracefulRestartRecoversAndResendDedupes) {
  // The WAL records no placement, so the second incarnation may run at
  // any shard count, fewer shards than the first included.
  const std::pair<uint32_t, uint32_t> kShardCounts[] = {
      {2, 2}, {3, 2}, {2, 1}, {1, 3}};
  for (const auto& [before, after] : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << before << " then " << after
                                      << " shards");
    std::filesystem::remove_all(data_dir_);
    uint64_t first_ingested = 0;
    {
      Server server(Options(before, data_dir_), &workload_.graph);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      SealUsers(client);
      SendStream(client);
      uint64_t duplicates = 0;
      ASSERT_TRUE(client.Flush(&first_ingested, &duplicates))
          << client.last_error();
      EXPECT_GT(first_ingested, 0u);
      EXPECT_EQ(duplicates, 0u);
      client.Disconnect();
      server.Stop();
    }

    // Second incarnation over the same data_dir: recovers the sealed
    // subscription state and every durable post, so the full resend is
    // entirely duplicates and the timelines don't change.
    Server server(Options(after, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_TRUE(server.sealed()) << "seal record not recovered";

    ServeClient client;
    ServeClient::ConnectInfo info;
    ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
    EXPECT_TRUE(info.sealed);
    EXPECT_EQ(info.posts_ingested, first_ingested);

    for (const Post& post : workload_.stream) {
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
    }
    uint64_t ingested = 0;
    uint64_t duplicates = 0;
    ASSERT_TRUE(client.Flush(&ingested, &duplicates)) << client.last_error();
    EXPECT_EQ(ingested, first_ingested) << "resend ingested new posts";
    EXPECT_EQ(duplicates, first_ingested);

    const auto expected = ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                            DiversityThresholds{});
    ExpectServedTimelinesMatch(client, expected);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, StartFailsCleanlyAfterRecoveringASealedLog) {
  {
    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);
    client.Disconnect();
    server.Stop();
  }

  // A sealed log with posts and a busy port: Start must fail with the
  // bind error and leave no shard thread behind for ~Server to trip on.
  int busy_port = 0;
  OwnedFd busy = ListenLoopback(0, /*backlog=*/1, &busy_port);
  ASSERT_TRUE(busy.valid());
  {
    ServeOptions options = Options(2, data_dir_);
    options.port = busy_port;
    Server server(options, &workload_.graph);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("cannot bind"), std::string::npos) << error;
  }

  // The failed Start left the log intact.
  Server server(Options(1, data_dir_), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_TRUE(server.sealed());
  EXPECT_GT(server.stats().posts_ingested, 0u);
  server.Stop();
}

TEST_F(NetServeTest, RefusedWritesFailClosedWhenTheWalFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail writes with ENOSPC";
  }
  const size_t half = workload_.stream.size() / 2;
  Workload logged_prefix = workload_;
  logged_prefix.stream.resize(half);
  const auto expected = ExpectedTimelines(logged_prefix, Algorithm::kCliqueBin,
                                          DiversityThresholds{});

  for (const std::string policy : {"always", "none"}) {
    SCOPED_TRACE("--wal_sync=" + policy);
    std::filesystem::remove_all(data_dir_);
    uint64_t logged = 0;
    {
      Server server(Options(2, data_dir_, Algorithm::kCliqueBin, policy),
                    &workload_.graph);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      SealUsers(client);
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(client.SendPost(workload_.stream[i]))
            << client.last_error();
      }
      ASSERT_TRUE(client.Flush(&logged)) << client.last_error();
      client.Disconnect();
      server.Stop();
    }

    // The next incarnation opens its fresh segment through a link to
    // /dev/full, where every write that reaches the device fails with
    // ENOSPC. ReadWal lists regular files only, so recovery skips it.
    const std::string wal_dir = data_dir_ + "/wal";
    dur::WalOptions wal_options;
    wal_options.dir = wal_dir;
    const uint64_t next_seq =
        dur::ReadWal(wal_options, /*start_seq=*/0, /*truncate_tail=*/false)
            .next_seq;
    std::filesystem::create_symlink(
        "/dev/full", wal_dir + "/" + dur::WalSegmentName(next_seq));

    obs::DebugState debug;
    ServeOptions options = Options(2, data_dir_, Algorithm::kCliqueBin, policy);
    options.debug = &debug;
    Server server(options, &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ASSERT_EQ(server.stats().posts_ingested, logged);
    {
      // Under `always` the first logged post syncs and is refused. Under
      // `none` one post stays in the writer's buffer, so only the
      // flush's sync reaches the device, and the flush is refused.
      const size_t end =
          policy == "always" ? workload_.stream.size() : half + 1;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      bool sent = true;
      for (size_t i = half; i < end && sent; ++i) {
        sent = client.SendPost(workload_.stream[i]);
      }
      EXPECT_FALSE(sent && client.Flush())
          << "a write was acknowledged after the WAL failed";
    }
    const ServeStats stats = server.stats();
    EXPECT_GE(stats.wal_failures, 1u);
    if (policy == "always") {
      // Every post is synced before any shard sees it, so the first
      // refused post leaves the served state at the logged prefix.
      EXPECT_EQ(stats.posts_ingested, logged);
      ServeClient poller;
      ASSERT_TRUE(poller.Connect(server.port())) << poller.last_error();
      ExpectServedTimelinesMatch(poller, expected);
      EXPECT_NE(debug.health().find("wal failed"), std::string::npos)
          << debug.health();
      EXPECT_NE(debug.varz_json().find("\"serve.wal_failures\": "),
                std::string::npos);
      poller.Disconnect();
    }
    server.Stop();
  }
}

TEST_F(NetServeTest, StartRejectsWalRecordsOutOfOrder) {
  const std::string follow =
      EncodeFollowRecord(0, workload_.users[0].subscriptions[0]);
  const std::string seal = EncodeSealRecord(1);
  const std::string first = EncodePostRecord(workload_.stream[0]);
  const std::string second = EncodePostRecord(workload_.stream[1]);
  struct Case {
    std::string error;
    std::vector<std::string> records;
  };
  // Ids past kServeIdBound would have the seal size its vectors by them.
  const std::string bound = std::to_string(kServeIdBound);
  const Case cases[] = {
      {"record 2 is a follow after the seal", {follow, seal, follow}},
      {"record 2 is a second seal", {follow, seal, seal}},
      {"record 1 is a post before the seal", {follow, first, seal}},
      {"record 3 has post id", {follow, seal, second, first}},
      {"record 3 has post id", {follow, seal, first, first}},
      {"record 1 follows with an id past " + bound,
       {follow, EncodeFollowRecord(0, 0xFFFFFFFFu), seal}},
      {"record 0 follows with an id past " + bound,
       {EncodeFollowRecord(static_cast<UserId>(kServeIdBound), 0), seal}},
      {"record 1 seals 1099511627776 users, past " + bound,
       {follow, EncodeSealRecord(uint64_t{1} << 40)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    std::filesystem::remove_all(data_dir_);
    dur::WalOptions wal_options;
    wal_options.dir = data_dir_ + "/wal";
    {
      dur::WalWriter wal(wal_options);
      ASSERT_TRUE(wal.Open(0));
      for (const std::string& record : c.records) {
        ASSERT_TRUE(wal.Append(record));
      }
      ASSERT_TRUE(wal.Close());
    }
    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("server WAL " + c.error), std::string::npos) << error;
  }
}

/// The follow and seal records in the server WAL under `data_dir`.
std::vector<std::string> ControlRecords(const std::string& data_dir) {
  dur::WalOptions wal_options;
  wal_options.dir = data_dir + "/wal";
  std::vector<std::string> records;
  for (const dur::WalRecord& record :
       dur::ReadWal(wal_options, /*start_seq=*/0, /*truncate_tail=*/false)
           .records) {
    if (!record.payload.empty() && record.payload[0] != 3) {
      records.push_back(record.payload);
    }
  }
  return records;
}

TEST_F(NetServeTest, FollowWithAnIdPastTheBoundIsRefused) {
  // Logged, such a follow would size the seal's routing by its ids and
  // abort the seal, and every restart replaying it, with std::bad_alloc.
  const std::string good = EncodeFollowRecord(0, 1);
  const std::pair<UserId, AuthorId> kBadFollows[] = {
      {0, 0xFFFFFFFFu},
      {0, static_cast<AuthorId>(kServeIdBound)},
      {static_cast<UserId>(kServeIdBound), 1},
  };
  for (const auto& [user, author] : kBadFollows) {
    SCOPED_TRACE(::testing::Message() << "Follow(" << user << ", " << author
                                      << ")");
    std::filesystem::remove_all(data_dir_);
    {
      Server server(Options(2, data_dir_), &workload_.graph);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      ASSERT_TRUE(client.Follow(0, 1));
      ASSERT_TRUE(client.Follow(user, author));
      ASSERT_TRUE(client.Seal(1));
      EXPECT_FALSE(client.Flush());
      EXPECT_NE(client.last_error().find("past " +
                                         std::to_string(kServeIdBound)),
                std::string::npos)
          << client.last_error();
      EXPECT_EQ(server.stats().malformed, 1u);
      EXPECT_FALSE(server.sealed());
      server.Stop();
    }
    // The refused follow, and the seal behind it, never reached the WAL.
    EXPECT_EQ(ControlRecords(data_dir_), std::vector<std::string>{good});

    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_FALSE(server.sealed());
    server.Stop();
  }
}

TEST_F(NetServeTest, SealPastTheIdBoundIsRefused) {
  // Logged, such a seal would size every shard's timelines by its user
  // count and abort, and again at every restart, with std::bad_alloc.
  for (const uint64_t num_users : {uint64_t{1} << 40, kServeIdBound + 1}) {
    SCOPED_TRACE(::testing::Message() << "Seal(" << num_users << ")");
    std::filesystem::remove_all(data_dir_);
    {
      Server server(Options(2, data_dir_), &workload_.graph);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      ASSERT_TRUE(client.Follow(0, 1));
      ASSERT_TRUE(client.Seal(num_users));
      EXPECT_FALSE(client.Flush());
      EXPECT_NE(client.last_error().find("past " +
                                         std::to_string(kServeIdBound)),
                std::string::npos)
          << client.last_error();
      EXPECT_EQ(server.stats().malformed, 1u);
      EXPECT_FALSE(server.sealed());
      server.Stop();
    }
    EXPECT_EQ(ControlRecords(data_dir_),
              std::vector<std::string>{EncodeFollowRecord(0, 1)});

    // A restart starts unsealed, and a seal within the bound then works.
    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_FALSE(server.sealed());
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    ASSERT_TRUE(client.Seal(1));
    ASSERT_TRUE(client.Flush()) << client.last_error();
    EXPECT_TRUE(server.sealed());
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, PollSinceReturnsTheSuffix) {
  const auto expected =
      ExpectedTimelines(workload_, Algorithm::kCliqueBin, DiversityThresholds{});
  // The users with the longest timelines, which are the likeliest to
  // have components on more than one shard.
  std::vector<UserId> paged;
  for (const User& user : workload_.users) paged.push_back(user.id);
  std::partial_sort(paged.begin(), paged.begin() + 4, paged.end(),
                    [&](UserId a, UserId b) {
                      return expected[a].size() > expected[b].size();
                    });
  paged.resize(4);
  ASSERT_GE(expected[paged.back()].size(), 3u);

  for (const uint32_t num_shards : {2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);
    ExpectEverySuffixMatches(client, paged, expected);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, TimelinesKeepIdsOfEveryVarintWidth) {
  // Each shard stores a timeline as the LEB128 gaps between its ids.
  // Give a prefix of the stream new ids from 0 to the largest uint32,
  // whose consecutive gaps cycle through the values at which a gap
  // takes one more byte, so every width reaches the wire.
  constexpr uint64_t kGaps[] = {
      1, 127, 128, 16383, 16384, uint64_t{1} << 21, uint64_t{1} << 28};
  constexpr uint64_t kLastId = 0xFFFFFFFFu;
  Workload relabeled = workload_;
  std::vector<uint64_t> ids = {0};
  while (ids.back() + kGaps[(ids.size() - 1) % std::size(kGaps)] < kLastId) {
    ids.push_back(ids.back() + kGaps[(ids.size() - 1) % std::size(kGaps)]);
  }
  ids.push_back(kLastId);
  ASSERT_LE(ids.size(), relabeled.stream.size());
  relabeled.stream.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    relabeled.stream[i].id = static_cast<PostId>(ids[i]);
  }
  const auto expected = ExpectedTimelines(relabeled, Algorithm::kCliqueBin,
                                          DiversityThresholds{});
  bool first_delivered = false;
  bool last_delivered = false;
  for (const auto& timeline : expected) {
    first_delivered = first_delivered || (!timeline.empty() &&
                                           timeline.front() == 0);
    last_delivered = last_delivered || (!timeline.empty() &&
                                         timeline.back() == kLastId);
  }
  ASSERT_TRUE(first_delivered && last_delivered);
  std::vector<UserId> users;
  for (const User& user : workload_.users) users.push_back(user.id);

  // The second server replays the first one's WAL at the other count.
  const std::pair<uint32_t, uint32_t> kShardCounts[] = {{1, 3}, {3, 1}};
  for (const auto& [before, after] : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << before << " then " << after
                                      << " shards");
    std::filesystem::remove_all(data_dir_);
    {
      Server server(Options(before, data_dir_), &workload_.graph);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      SealUsers(client);
      for (const Post& post : relabeled.stream) {
        ASSERT_TRUE(client.SendPost(post)) << client.last_error();
      }
      ASSERT_TRUE(client.Flush()) << client.last_error();
      ExpectEverySuffixMatches(client, users, expected);
      client.Disconnect();
      server.Stop();
    }
    Server server(Options(after, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_EQ(server.stats().posts_ingested, relabeled.stream.size());
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    ExpectEverySuffixMatches(client, users, expected);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, FlushAckMeansEveryShardDecided) {
  // A flush's ack promises that every shard decided every post before
  // it: the deliveries are final at once, with no poll to wait on the
  // shards and no sleep. Flush every kFlushEvery posts and at the end
  // (SendStream's last call), against the sequential engine fed the same
  // prefix.
  constexpr size_t kFlushEvery = 100;
  for (const uint32_t num_shards : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);

    auto engine = MakeSUserEngine(Algorithm::kCliqueBin, DiversityThresholds{},
                                  workload_.graph, workload_.users);
    std::vector<UserId> delivered;
    uint64_t expected = 0;
    for (size_t sent = 1; sent <= workload_.stream.size(); ++sent) {
      const Post& post = workload_.stream[sent - 1];
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
      engine->Offer(post, &delivered);
      expected += delivered.size();
      if (sent % kFlushEvery == 0 || sent == workload_.stream.size()) {
        ASSERT_TRUE(client.Flush()) << client.last_error();
        EXPECT_EQ(server.stats().deliveries, expected)
            << "after " << sent << " posts";
      }
    }
    ASSERT_GT(expected, 0u);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, PostsLeaveTheClientWithinAPage) {
  // With no flush or poll to push them, posts reach the server once a
  // page of frames is buffered: of 16 KiB of post frames, only the ones
  // after the last whole page may still wait in the client. A client
  // that held 32 KiB would send none of them.
  constexpr size_t kSendBytes = 16 * 1024;
  Server server(Options(2), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  ASSERT_TRUE(client.Flush()) << client.last_error();  // the buffer is empty

  std::vector<size_t> frame_bytes;
  size_t total = 0;
  for (const Post& post : workload_.stream) {
    if (total >= kSendBytes) break;
    NetMessage message;
    message.type = MsgType::kPost;
    message.post = post;
    std::string frame;
    AppendMessage(message, &frame);
    frame_bytes.push_back(frame.size());
    total += frame.size();
    ASSERT_TRUE(client.SendPost(post)) << client.last_error();
  }
  ASSERT_GT(total, 8u * 1024);
  ASSERT_LT(total, 32u * 1024);
  // What the client still holds totals under a page, so it is at most
  // the most trailing frames that do.
  size_t held = 0;
  for (size_t bytes = 0; held < frame_bytes.size(); ++held) {
    bytes += frame_bytes[frame_bytes.size() - 1 - held];
    if (bytes >= kFlushThresholdBytes) break;
  }
  const uint64_t sent = frame_bytes.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().posts_received < sent - held &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().posts_received, sent - held)
      << sent << " posts sent in " << total << " bytes";
  ASSERT_TRUE(client.Flush()) << client.last_error();
  EXPECT_EQ(server.stats().posts_received, sent);
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, StoppedServerServesAgainAfterStart) {
  // Stop ends each worker through its stop flag; a second Start spawns
  // the same workers again, and they must decide what is routed to them.
  // With a data dir the second Start replays the WAL instead, onto state
  // it first clears, so the seal and the first half count once.
  uint64_t followed = 0;  // posts some user follows: the ones logged
  for (const Post& post : workload_.stream) {
    followed += std::any_of(
        workload_.users.begin(), workload_.users.end(), [&](const User& u) {
          return std::find(u.subscriptions.begin(), u.subscriptions.end(),
                           post.author) != u.subscriptions.end();
        });
  }
  ASSERT_GT(followed, 0u);
  for (const std::string& data_dir : {std::string(), data_dir_}) {
    SCOPED_TRACE(data_dir.empty() ? "no data dir" : "with a data dir");
    Server server(Options(2, data_dir), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    const size_t half = workload_.stream.size() / 2;
    {
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      SealUsers(client);
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(client.SendPost(workload_.stream[i]))
            << client.last_error();
      }
      ASSERT_TRUE(client.Flush()) << client.last_error();
      client.Disconnect();
    }
    server.Stop();

    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    for (size_t i = half; i < workload_.stream.size(); ++i) {
      ASSERT_TRUE(client.SendPost(workload_.stream[i])) << client.last_error();
    }
    ASSERT_TRUE(client.Flush()) << client.last_error();
    ExpectServedTimelinesMatch(
        client, ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                  DiversityThresholds{}));
    EXPECT_EQ(server.stats().posts_ingested, followed);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, StartRefusesAShardCountOutsideTheRange) {
  // With no data dir and no seal no shard is built, so no count starts a
  // shard thread here, whether Start takes it or not.
  const std::string range = "outside 1.." + std::to_string(kMaxServeShards);
  for (const uint32_t num_shards : {0u, kMaxServeShards + 1, 0xFFFFFFFFu}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find(range), std::string::npos) << error;
  }
  Server server(Options(kMaxServeShards), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  server.Stop();
}

TEST_F(NetServeTest, PollsWithoutFlushSeeEveryEarlierPost) {
  // A poll must see every post sent before it, flushed or not. Poll a
  // rotating handful of users every kPollEvery posts and every user at
  // the end, with no Flush anywhere, against the sequential engine fed
  // the same prefix.
  constexpr size_t kPollEvery = 40;
  constexpr UserId kStride = 7;
  const size_t num_users = workload_.users.size();
  for (const uint32_t num_shards : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);

    auto engine = MakeSUserEngine(Algorithm::kCliqueBin, DiversityThresholds{},
                                  workload_.graph, workload_.users);
    std::vector<std::vector<PostId>> expected(num_users);
    std::vector<UserId> delivered;
    const auto expect_polls = [&](UserId first, UserId stride, size_t sent) {
      for (UserId user = first; user < num_users; user += stride) {
        std::vector<PostId> served;
        ASSERT_TRUE(client.Poll(user, 0, &served)) << client.last_error();
        EXPECT_EQ(served, expected[user])
            << "user " << user << " after " << sent << " posts";
      }
    };
    size_t sent = 0;
    for (const Post& post : workload_.stream) {
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
      engine->Offer(post, &delivered);
      for (const UserId user : delivered) expected[user].push_back(post.id);
      if (++sent % kPollEvery == 0) {
        expect_polls(static_cast<UserId>(sent / kPollEvery % kStride), kStride,
                     sent);
      }
    }
    expect_polls(0, 1, sent);
    client.Disconnect();
    server.Stop();
  }
}

TEST_F(NetServeTest, ProtocolErrorsAreReportedNotFatalToTheServer) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // Posting before seal is a protocol error that poisons only this
    // connection.
    ServeClient early;
    ASSERT_TRUE(early.Connect(server.port())) << early.last_error();
    ASSERT_TRUE(early.SendPost(workload_.stream.front()));
    EXPECT_FALSE(early.Flush());
    EXPECT_NE(early.last_error().find("server error"), std::string::npos)
        << early.last_error();
  }

  // The dispatcher serves one connection at a time, so each client
  // below closes before the next connects.
  {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    client.Disconnect();
  }

  {
    // Follow after seal on a fresh connection: rejected.
    ServeClient late;
    ASSERT_TRUE(late.Connect(server.port())) << late.last_error();
    ASSERT_TRUE(late.Follow(0, 0));
    EXPECT_FALSE(late.Flush());
  }

  // Unknown user: the error names the bound.
  std::vector<PostId> timeline;
  ServeClient poller;
  ASSERT_TRUE(poller.Connect(server.port())) << poller.last_error();
  EXPECT_FALSE(poller.Poll(static_cast<UserId>(workload_.users.size() + 5), 0,
                           &timeline));
  EXPECT_NE(poller.last_error().find("server error"), std::string::npos);

  // The server survived all of the above.
  ServeClient fine;
  ASSERT_TRUE(fine.Connect(server.port())) << fine.last_error();
  ASSERT_TRUE(fine.Flush());
  fine.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, MalformedBytesPoisonTheConnection) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Raw socket client speaking garbage: the server must answer kError
  // (or close), never crash, and keep serving the next connection.
  {
    OwnedFd fd = ConnectLoopback(server.port(), 2000);
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(WriteAllFd(fd.get(), "GET / HTTP/1.1\r\n\r\n"));
    FrameReader reader(fd.get());
    NetMessage response;
    const FrameReader::Result result = reader.Next(&response, 2000);
    if (result == FrameReader::Result::kMessage) {
      EXPECT_EQ(response.type, MsgType::kError);
    } else {
      EXPECT_EQ(result, FrameReader::Result::kClosed);
    }
  }

  ServeClient client;
  EXPECT_TRUE(client.Connect(server.port())) << client.last_error();
  EXPECT_GE(server.stats().malformed, 1u);
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, HelloWithWrongMagicIsRejected) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  OwnedFd fd = ConnectLoopback(server.port(), 2000);
  ASSERT_TRUE(fd.valid());
  NetMessage hello;
  hello.type = MsgType::kHello;
  hello.magic = 0x12345678;  // not kHelloMagic
  hello.min_version = kWireVersion;
  hello.max_version = kWireVersion;
  hello.client_name = "imposter";
  ASSERT_TRUE(SendMessage(fd.get(), hello));

  FrameReader reader(fd.get());
  NetMessage response;
  ASSERT_EQ(reader.Next(&response, 2000), FrameReader::Result::kMessage);
  EXPECT_EQ(response.type, MsgType::kError);
  server.Stop();
}

TEST_F(NetServeTest, ControlRecordCodecsRoundTripThroughTheWal) {
  // Pin the exact shape of the server-WAL records so a recovery of
  // today's records keeps working after future edits.
  const std::string follow = EncodeFollowRecord(7, 99);
  const std::string seal = EncodeSealRecord(298);
  EXPECT_EQ(follow[0], 1);
  EXPECT_EQ(seal[0], 2);
  BinaryReader follow_reader(std::string_view(follow).substr(1));
  uint64_t user = 0;
  uint64_t author = 0;
  ASSERT_TRUE(follow_reader.GetVarint(&user));
  ASSERT_TRUE(follow_reader.GetVarint(&author));
  EXPECT_EQ(user, 7u);
  EXPECT_EQ(author, 99u);
  EXPECT_TRUE(follow_reader.AtEnd());
  BinaryReader seal_reader(std::string_view(seal).substr(1));
  uint64_t num_users = 0;
  ASSERT_TRUE(seal_reader.GetVarint(&num_users));
  EXPECT_EQ(num_users, 298u);
  EXPECT_TRUE(seal_reader.AtEnd());

  const Post& post = workload_.stream[3];
  const std::string logged = EncodePostRecord(post);
  EXPECT_EQ(logged[0], 3);
  Post decoded;
  ASSERT_TRUE(
      dur::DecodePostRecord(std::string_view(logged).substr(1), &decoded));
  EXPECT_EQ(decoded.id, post.id);
  EXPECT_EQ(decoded.author, post.author);
  EXPECT_EQ(decoded.time_ms, post.time_ms);
  EXPECT_EQ(decoded.simhash, post.simhash);
  EXPECT_EQ(decoded.text, post.text);
}

}  // namespace
}  // namespace net
}  // namespace firehose
