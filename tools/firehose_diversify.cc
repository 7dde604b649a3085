// firehose_diversify: the online phase. Loads the precomputed author
// graph (and clique cover), streams a recorded post file through the
// chosen algorithm and writes the diversified sub-stream. With --live it
// releases each post at its timestamp, --speedup times faster than real
// time, and reports how late each decision ended after its post's
// release and how many released posts waited undecided.
//
// Observability: --metrics_out writes a machine-readable snapshot of the
// run's metrics registry — Prometheus text format when the path ends in
// .prom, otherwise the stable firehose.metrics.v1 JSON (timing-dependent
// metrics dropped, so repeated runs of the same inputs are
// byte-identical). --trace_out writes a Chrome trace_event JSON file
// loadable in Perfetto / chrome://tracing.
//
// Durability: --wal_dir enables the crash-safe runtime (DESIGN.md §4d).
// Every post is appended to a write-ahead log before the engine decides,
// the engine state is checkpointed every --checkpoint_every posts, and on
// startup the tool recovers from the newest checkpoint + WAL tail, so a
// SIGKILL at any instant loses no durable work: re-running the identical
// command line resumes and produces the byte-identical --out stream and
// metrics snapshot of an uninterrupted run. FIREHOSE_CRASH_AFTER=N in the
// environment makes the process SIGKILL itself after N posts (the
// crash-recovery harness's deterministic kill switch).
//
// Usage:
//   firehose_diversify --graph=author_graph.bin --stream=stream.bin
//       [--out=diversified.tsv]
//       [--cover=/tmp/w/cover.bin] [--algorithm=cliquebin|unibin|neighborbin]
//       [--lambda_c=18] [--lambda_t_min=30] [--live] [--speedup=100000]
//       [--metrics_out=metrics.json] [--trace_out=trace.json]
//       [--wal_dir=DIR --checkpoint_every=1000 --wal_sync=none|always|every=N]
//   firehose_diversify --version

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Sink of the durable pipeline: appends each admitted post as one TSV
/// line to the already-open output file, tracking the byte offset the
/// next checkpoint will claim. Byte-identical to SavePostStreamTsv of
/// the same kept stream.
class TsvFileSink final : public PostSink {
 public:
  TsvFileSink(dur::WritableFile* file, uint64_t* bytes)
      : file_(file), bytes_(bytes) {}

  void Deliver(const Post& post) override {
    ++count_;
    if (file_ == nullptr) return;
    std::string line;
    AppendPostTsvLine(post, &line);
    if (!file_->Append(line)) ok_ = false;
    *bytes_ += line.size();
  }

  uint64_t count() const { return count_; }
  bool ok() const { return ok_; }

 private:
  dur::WritableFile* file_;
  uint64_t* bytes_;
  uint64_t count_ = 0;
  bool ok_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(
      {"graph", "stream", "out", "cover", "algorithm", "lambda_c",
       "lambda_t_min", "live", "speedup", "metrics_out", "trace_out",
       "wal_dir", "checkpoint_every", "wal_sync", "debug_port",
       "crash_trace_out", "version", "help"});
  if (flags.Has("version")) {
    std::printf("%s\n", BuildInfoString().c_str());
    return 0;
  }
  if (!unknown.empty() || flags.Has("help") || !flags.Has("graph") ||
      !flags.Has("stream")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(
        stderr,
        "usage: firehose_diversify --graph=PATH --stream=PATH [--out=PATH]\n"
        "    [--cover=PATH] [--algorithm=unibin|neighborbin|cliquebin]\n"
        "    [--lambda_c=18] [--lambda_t_min=30] [--live] [--speedup=F]\n"
        "    [--metrics_out=PATH(.json|.prom)] [--trace_out=PATH]\n"
        "    [--wal_dir=DIR] [--checkpoint_every=N]\n"
        "    [--wal_sync=none|always|every=N]\n"
        "    [--debug_port=N (0 = ephemeral)] [--crash_trace_out=PATH]\n"
        "    [--version]\n");
    return flags.Has("help") ? 0 : 2;
  }

  AuthorGraph graph;
  if (!LoadAuthorGraph(flags.GetString("graph", ""), &graph)) {
    std::fprintf(stderr, "error: cannot load author graph\n");
    return 1;
  }
  Algorithm algorithm = Algorithm::kCliqueBin;
  if (!ParseAlgorithm(flags.GetString("algorithm", "cliquebin"), &algorithm)) {
    std::fprintf(stderr, "error: unknown algorithm\n");
    return 2;
  }
  CliqueCover cover;
  bool have_cover = false;
  if (flags.Has("cover")) {
    if (!LoadCliqueCover(flags.GetString("cover", ""), &cover)) {
      std::fprintf(stderr, "error: cannot load clique cover\n");
      return 1;
    }
    if (!cover.IsValidFor(graph)) {
      std::fprintf(stderr, "error: cover does not match graph\n");
      return 1;
    }
    have_cover = true;
  }

  const std::string stream_path = flags.GetString("stream", "");
  PostStream stream;
  bool loaded = false;
  if (EndsWith(stream_path, ".tsv")) {
    loaded = LoadPostStreamTsv(stream_path, &stream);
  } else {
    loaded = LoadPostStream(stream_path, &stream);
  }
  if (!loaded) {
    std::fprintf(stderr, "error: cannot load stream\n");
    return 1;
  }

  // Observability: both hooks stay null (near-zero overhead) unless
  // requested. The trace recorder is also installed as the process
  // global so engine-internal instants (evictions, cover rebuilds)
  // land in the same file.
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  const bool want_metrics = flags.Has("metrics_out");
  const bool want_trace = flags.Has("trace_out");
  if (want_trace) obs::SetGlobalTrace(&trace);
  PipelineObs pipeline_obs;
  if (want_metrics) pipeline_obs.metrics = &metrics;
  if (want_trace) pipeline_obs.trace = &trace;

  // Live introspection (DESIGN.md §4h): --debug_port serves /metricsz,
  // /varz, /statusz and /tracez on 127.0.0.1 while the run is in flight;
  // --crash_trace_out arms the fatal-signal flight dump (and receives the
  // flight trace on a watchdog trip). Both install the process-global
  // flight recorder, so engine-adjacent events land in the same rings.
  // Its rings take 6.3 MB, so it exists only when one of the two reads
  // it, and on the heap: main's stack may be smaller than it.
  std::unique_ptr<obs::FlightRecorder> flight;
  obs::Watchdog watchdog(/*stall_nanos=*/2ull * 1000 * 1000 * 1000);
  std::unique_ptr<obs::DebugServer> debug_server;
  const bool want_debug = flags.Has("debug_port");
  const std::string crash_trace_path = flags.GetString("crash_trace_out", "");
  if (want_debug || !crash_trace_path.empty()) {
    flight = std::make_unique<obs::FlightRecorder>();
    obs::SetGlobalFlightRecorder(flight.get());
    pipeline_obs.flight = flight.get();
  }
  if (!crash_trace_path.empty()) {
    obs::InstallCrashDumpHandler(crash_trace_path.c_str());
    watchdog.SetTripCallback([&](int, const char* name, uint64_t progress,
                                 int64_t depth) {
      FIREHOSE_LOG(kError, "watchdog stall detected, dumping flight trace")
          .Kv("task", name)
          .Kv("progress", progress)
          .Kv("depth", depth)
          .Kv("trace", crash_trace_path);
      (void)WriteFileAtomic(crash_trace_path,
                            flight->DumpJson(30ull * 1000 * 1000 * 1000));
    });
  } else {
    watchdog.SetTripCallback([](int, const char* name, uint64_t progress,
                                int64_t depth) {
      FIREHOSE_LOG(kError, "watchdog stall detected")
          .Kv("task", name)
          .Kv("progress", progress)
          .Kv("depth", depth);
    });
  }
  if (want_debug) {
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
    std::fflush(stdout);
    pipeline_obs.debug = debug_server->state();
    pipeline_obs.watchdog = &watchdog;
    watchdog.StartPolling(/*poll_interval_nanos=*/500ull * 1000 * 1000);
  }

  DiversityThresholds thresholds;
  thresholds.lambda_c = static_cast<int>(flags.GetInt("lambda_c", 18));
  thresholds.lambda_t_ms = flags.GetInt("lambda_t_min", 30) * 60 * 1000;
  auto diversifier = MakeDiversifier(algorithm, thresholds, &graph,
                                     have_cover ? &cover : nullptr);

  const bool live = flags.GetBool("live", false);
  const double speedup = live ? flags.GetDouble("speedup", 100000.0) : 0.0;
  if (live && !(speedup > 0.0)) {
    std::fprintf(stderr, "error: --speedup must be positive\n");
    return 2;
  }
  PostStream kept;
  PipelineReport report;
  const bool durable = flags.Has("wal_dir");
  if (durable) {
    const std::string out_path = flags.GetString("out", "");
    if (!out_path.empty() && !EndsWith(out_path, ".tsv")) {
      std::fprintf(stderr,
                   "error: durable runs write --out incrementally and only "
                   "support the .tsv format\n");
      return 2;
    }

    dur::DurableOptions dur_options;
    dur_options.dir = flags.GetString("wal_dir", "");
    dur_options.checkpoint_every =
        static_cast<uint64_t>(flags.GetInt("checkpoint_every", 1000));
    dur_options.sync_spec = flags.GetString("wal_sync", "none");
    if (want_metrics) dur_options.metrics = &metrics;
    dur::DurableSession session(dur_options, diversifier.get());

    // Replay-accepted posts become output lines, but the output file can
    // only be positioned once recovery reports the checkpoint's durable
    // offset — so buffer the lines and append them right after truncation.
    std::string replayed_lines;
    dur::RecoveryReport recovery;
    std::string error;
    if (!session.Recover(
            &recovery,
            [&](const Post& post) { AppendPostTsvLine(post, &replayed_lines); },
            &error)) {
      std::fprintf(stderr, "error: recovery failed: %s\n", error.c_str());
      return 1;
    }
    if (recovery.next_seq > stream.size()) {
      std::fprintf(stderr,
                   "error: durable state in %s is ahead of --stream "
                   "(%llu posts logged, %zu in the file); wrong stream?\n",
                   dur_options.dir.c_str(),
                   static_cast<unsigned long long>(recovery.next_seq),
                   stream.size());
      return 1;
    }
    if (recovery.found_checkpoint || recovery.replayed_posts > 0) {
      std::printf(
          "recovered from %s: checkpoint=%s, replayed %llu WAL posts, "
          "resuming at post %llu%s\n",
          dur_options.dir.c_str(), recovery.found_checkpoint ? "yes" : "no",
          static_cast<unsigned long long>(recovery.replayed_posts),
          static_cast<unsigned long long>(recovery.next_seq),
          recovery.corruption_detected ? " (torn tail truncated)" : "");
    }

    // Position the durable output: a recovered run truncates to the last
    // checkpoint's fsynced offset and extends; a fresh run starts over.
    dur::FileOps* ops = dur::RealFileOps();
    std::unique_ptr<dur::WritableFile> out_file;
    uint64_t out_bytes = 0;
    if (!out_path.empty()) {
      if (recovery.found_checkpoint) {
        if (!ops->Truncate(out_path, recovery.output_bytes)) {
          std::fprintf(stderr, "error: cannot truncate %s to %llu bytes\n",
                       out_path.c_str(),
                       static_cast<unsigned long long>(recovery.output_bytes));
          return 1;
        }
        out_file = ops->OpenAppend(out_path);
        out_bytes = recovery.output_bytes;
      } else {
        out_file = ops->Create(out_path);
        if (out_file != nullptr) {
          const std::string header = PostStreamTsvHeader();
          if (!out_file->Append(header)) out_file = nullptr;
          out_bytes = header.size();
        }
      }
      if (out_file == nullptr) {
        std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
        return 1;
      }
      if (!replayed_lines.empty() && !out_file->Append(replayed_lines)) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        return 1;
      }
      out_bytes += replayed_lines.size();
    }

    uint64_t crash_after = 0;
    if (const char* env = std::getenv("FIREHOSE_CRASH_AFTER")) {
      crash_after = std::strtoull(env, nullptr, 10);
    }
    uint64_t processed_here = 0;

    TsvFileSink sink(out_file.get(), &out_bytes);
    Pipeline pipeline(diversifier.get(), &sink, speedup);
    PipelineDur pipeline_dur;
    pipeline_dur.session = &session;
    pipeline_dur.after_post = [&] {
      // The kill-loop harness dies at exact per-incarnation post counts;
      // SIGKILL so no destructor or flush can soften the crash.
      if (crash_after > 0 && ++processed_here >= crash_after) {
        std::raise(SIGKILL);
      }
    };
    pipeline_dur.checkpoint = [&] {
      // Output must be durable to `out_bytes` before a checkpoint may
      // claim that offset.
      if (out_file != nullptr && !out_file->Sync()) return false;
      return session.Checkpoint(out_bytes);
    };
    // pipeline.* totals are per-process (a recovered run sees fewer posts
    // than an uninterrupted one), so the durable path keeps them out of
    // the registry; engine.* counters live in the checkpointed state and
    // stay exact across crashes.
    PipelineObs durable_obs = pipeline_obs;
    durable_obs.metrics = nullptr;
    report = pipeline.Run(stream, durable_obs, pipeline_dur);
    if (report.io_error || !sink.ok()) {
      std::fprintf(stderr, "error: durable run failed (WAL/checkpoint/output "
                           "write error)\n");
      return 1;
    }
    if (out_file != nullptr && !out_file->Sync()) {
      std::fprintf(stderr, "error: cannot sync %s\n", out_path.c_str());
      return 1;
    }
    if (!session.Close(out_bytes)) {
      std::fprintf(stderr, "error: final checkpoint failed\n");
      return 1;
    }
    // Sync() above already confirmed durability and nothing was appended
    // since, so a Close failure cannot lose acknowledged bytes.
    if (out_file != nullptr) (void)out_file->Close();

    const IngestStats& stats = diversifier->stats();
    std::printf(
        "%s (durable): %llu in / %llu out (%.1f%% pruned) in %.1fms; "
        "%llu comparisons, %.2f MiB bins\n",
        std::string(diversifier->name()).c_str(),
        static_cast<unsigned long long>(stats.posts_in),
        static_cast<unsigned long long>(stats.posts_out),
        stats.posts_in > 0
            ? 100.0 * (1.0 - static_cast<double>(stats.posts_out) /
                                 static_cast<double>(stats.posts_in))
            : 0.0,
        report.wall_ms, static_cast<unsigned long long>(stats.comparisons),
        static_cast<double>(diversifier->ApproxBytes()) / (1 << 20));
    if (!out_path.empty()) {
      std::printf("wrote %llu diversified posts to %s (durable)\n",
                  static_cast<unsigned long long>(stats.posts_out),
                  out_path.c_str());
    }
  } else {
    CollectSink sink(&kept);
    Pipeline pipeline(diversifier.get(), &sink, speedup);
    report = pipeline.Run(stream, pipeline_obs);
    const IngestStats& stats = diversifier->stats();
    std::printf(
        "%s: %llu in / %zu out (%.1f%% pruned) in %.1fms; "
        "%llu comparisons, %llu insertions, %.2f MiB bins\n",
        std::string(diversifier->name()).c_str(),
        static_cast<unsigned long long>(stats.posts_in), kept.size(),
        100.0 * (1.0 - static_cast<double>(stats.posts_out) /
                           static_cast<double>(stats.posts_in)),
        report.wall_ms,
        static_cast<unsigned long long>(stats.comparisons),
        static_cast<unsigned long long>(stats.insertions),
        static_cast<double>(diversifier->ApproxBytes()) / (1 << 20));
  }
  if (live) {
    std::printf(
        "live replay at %.0fx: lateness us p50=%.1f p95=%.1f p99=%.1f "
        "max=%.1f; backlog high-water %llu\n",
        speedup, report.lateness.p50 / 1000.0, report.lateness.p95 / 1000.0,
        report.lateness.p99 / 1000.0, report.lateness.max / 1000.0,
        static_cast<unsigned long long>(report.backlog_high_water));
  }

  if (want_trace) obs::SetGlobalTrace(nullptr);

  // Graceful debug shutdown on drain: one last publish so a scrape after
  // the run sees final totals, then stop accepting before the registry
  // and flight recorder leave scope.
  if (debug_server != nullptr) {
    watchdog.StopPolling();
    debug_server->Stop();
  }
  obs::SetGlobalFlightRecorder(nullptr);

  if (want_metrics) {
    ExportDiversifierMetrics(*diversifier, &metrics);
    const std::string path = flags.GetString("metrics_out", "");
    // Prometheus keeps timing series (it is for scraping/humans); the
    // JSON snapshot drops them so identical inputs export identical
    // bytes.
    const std::string body =
        EndsWith(path, ".prom")
            ? obs::ExportPrometheus(metrics, {/*include_timing=*/true})
            : obs::ExportJson(metrics, {/*include_timing=*/false});
    if (!WriteFileAtomic(path, body)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu metrics to %s\n", metrics.size(), path.c_str());
  }
  if (want_trace) {
    const std::string path = flags.GetString("trace_out", "");
    if (!WriteFileAtomic(path, trace.ToJson())) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", trace.size(), path.c_str());
  }

  if (flags.Has("out") && !durable) {
    const std::string out = flags.GetString("out", "");
    const bool ok = EndsWith(out, ".tsv") ? SavePostStreamTsv(kept, out)
                                          : SavePostStream(kept, out);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu diversified posts to %s\n", kept.size(),
                out.c_str());
  }
  return 0;
}
