#!/usr/bin/env python3
"""Served-path benchmark: firehose_serve driven over loopback by one
single-threaded client on one connection.

Usage (from the repository root):
  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 servebench/run.py --smoke

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
with every end-to-end metric of BENCHMARK.json under --trace 0 and every
per-layer metric under --trace 1. `failed / attempted` is the error rate:
failed, refused or mismatched operations over operations attempted.

Every workload serves one seeded population (4000 authors, 50 posts per
author per day, lambda_c=18, lambda_t=30 min, lambda_a=0.7). It is generated
once per seed and parameter set, together with the in-process S_CliqueBin
reference hash of every user's timeline, and cached under .bench_build/;
firehose_serve only receives the generated author graph. The server always
runs with --shards=2 --algorithm=cliquebin and a fresh --data_dir.

Both workloads are open loops at a fixed post rate well below what the
server sustains, as the client's user would drive it. A closed loop at full
speed is not a workload: its rate, freshness and CPU per post follow the
host's CPU speed, which moves the same pass by 2x within minutes on a
shared 4-core VM (one 5-minute series read 22.6k to 61.3k posts/s), so no
bound of 25% holds on them. The traced run still measures that rate
(net.server.closed_loop_posts_per_s).

A run repeats passes while one more, as long as the last, still ends
within --seconds (at least MIN_PASSES). A pass starts a fresh server, sets
up (connect, follows, seal, flush), ingests, polls, checks the timeline
hash and shuts the server down. Each metric is the median of its per-pass
values.

End-to-end metrics (untraced passes):
  setup_s                 connect .. ack of the flush sent right after seal
  ingest_posts_per_s      posts / (first post sent .. ack of the final
                          flush); below the offered rate when the server
                          falls behind
  fresh_p50_ms, _p99_ms   ack of the first flush issued after a post was
                          sent, minus the post's due time (its schedule
                          slot)
  poll_p50_ms             incremental poll round trip
  server_rss_mb           VmHWM of the server process
The poll tail (net.client.poll_ms.p99) and server CPU per post
(net.server.cpu_us_per_post) are per-layer readings, not end-to-end
metrics: the p90 and p99 of a 0.3 ms loopback round trip move by several
times with host scheduling noise for minutes at a time, and CPU per post
follows host CPU speed (at 20k posts/s two sets of ten runs spread 0.08
and 0.21 of their median), so no relative bound of 25% holds on them.

Per-layer metrics (--trace 1): one untraced and one traced pass of the
workload (the client times its calls and records spans; the server runs
with --debug_port and /statusz is sampled), one closed-loop pass at full
speed over CAPACITY_POSTS posts, then `servebench layers` times the
modules' public entry points in-process on the workload's inputs. Spans
are written as Chrome trace JSON under .bench_build/servebench/traces/.
  net.server.cpu_us_per_post
                          server utime+stime during ingest / posts sent,
                          in the untraced pass
  trace.overhead_pct      fresh_p50_ms of the traced pass over the
                          untraced pass, minus one
  trace.attributed_pct    per-post time covered by timed layer calls on the
                          server's path (dispatcher decode + WAL work spread
                          over the shards + the in-process two-shard engine)
                          over the closed-loop pass's per-post ingest time.
                          The client's send time is left out: it overlaps
                          the server and is mostly waiting on a full socket.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "servebench")
SERVE = os.path.join(BUILD, "firehose_serve")
CLIENT = os.path.join(BUILD, "servebench")

SHARDS = 2
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 120

# Why each workload exists is recorded in BENCHMARK.json. Workloads serve
# stream prefixes so that a run fits several passes. An fsync-bound
# workload (--wal_sync=always) is left out: its setup alone fsyncs every
# follow (~9 s a pass) and its rate follows fsync latency, so too few
# passes fit in a run to steady it.
WORKLOADS = {
    # Write-heavy: 10k posts/s over the first 50k posts, a flush every
    # 100 ms of schedule and 16 incremental polls after each. Freshness
    # rides on the flush round trip. The rate stays under half the lowest
    # closed-loop rate seen here (22.6k posts/s): at 20k posts/s a slow
    # spell of the host put a run's fresh_p99_ms at 488 ms against 141.
    "paced_readwrite": {
        "posts": 50000,
        "wal_sync": "none",
        "drive": ["--rate=10000", "--flush_ms=100", "--polls_per_flush=16"],
        "flush_posts": 1000,
    },
    # Read-heavy: 5k posts/s over the first 20k posts, a flush every 100 ms
    # and 128 incremental polls after each (a poll per 4 posts, against
    # one per 125 above). The engine mostly idles.
    "poll_heavy": {
        "posts": 20000,
        "wal_sync": "none",
        "drive": ["--rate=5000", "--flush_ms=100", "--polls_per_flush=128"],
        "flush_posts": 500,
    },
}
# The traced run's closed loop at full speed, one final flush.
CAPACITY_POSTS = 100000
CAPACITY = {"posts": CAPACITY_POSTS, "wal_sync": "none", "drive": []}
# Stream prefixes the reference covers.
PREFIXES = "20000,50000,100000"
POPULATION = {"authors": 4000, "posts_per_author": 50}
SMOKE_POPULATION = {"authors": 300, "posts_per_author": 5}

END_TO_END = {
    "setup_s": "s",
    "ingest_posts_per_s": "posts/s",
    "fresh_p50_ms": "ms",
    "fresh_p99_ms": "ms",
    "poll_p50_ms": "ms",
    "server_rss_mb": "MiB",
}

# Per-layer metric -> (unit, source, what it should move). Sources:
# "layers" (the in-process probes, same name), "drive:<key>" (the traced
# pass) or "run" (computed here). The last field is what the layer metric
# should move, and on which workload: an end-to-end metric, or the traced
# run's closed-loop rate and CPU per post where no bounded metric would show
# the change (see above).
CAPACITY_NOTE = "net.server.closed_loop_posts_per_s"
CPU = "net.server.cpu_us_per_post on both workloads"
FRESH_P50 = "fresh_p50_ms on paced_readwrite"
PACED_P99 = "fresh_p99_ms on paced_readwrite"
DURABLE = ("ingest_posts_per_s and setup_s under --wal_sync=always, which "
           "no workload runs; nothing on either workload")
ENGINE = ("fresh_p99_ms on paced_readwrite near capacity; " + CAPACITY_NOTE +
          " and " + CPU)
PER_LAYER = {
    "net.client.send_us_per_post": ("us", "drive:send_us_per_post",
                                    CAPACITY_NOTE + " (small share)"),
    "net.proto.encode_ns_per_post": ("ns", "layers", CPU + " (small)"),
    "net.proto.decode_ns_per_post": ("ns", "layers", CPU + " (small)"),
    "net.proto.bytes_per_post": ("bytes", "layers", CPU + " (small)"),
    "net.client.flush_ms.p50": ("ms", "drive:flush_ms_p50",
                                FRESH_P50 + " and poll_heavy"),
    "net.client.flush_ms.p90": ("ms", "drive:flush_ms_p90", PACED_P99),
    "net.client.poll_ids_per_poll": (
        "count", "drive:poll_ids_per_poll",
        "poll_p50_ms on paced_readwrite vs poll_heavy (fewer ids a poll)"),
    "net.client.poll_ms.p99": ("ms", "drive:poll_p99_ms",
                               "poll_p50_ms's tail, on both workloads"),
    "net.placement.shards_per_post": ("count", "layers",
                                      CAPACITY_NOTE + ", " + PACED_P99),
    "net.placement.post_skew": ("ratio", "layers",
                                CAPACITY_NOTE + ", " + PACED_P99),
    "net.server.queue_depth.max": ("count", "run", PACED_P99),
    "net.server.closed_loop_posts_per_s": (
        "posts/s", "run",
        "headroom over ingest_posts_per_s on paced_readwrite"),
    "net.server.cpu_us_per_post": (
        "us", "run", "fresh_p99_ms on paced_readwrite as it nears capacity"),
    "dur.wal.append_us": ("us", "layers", DURABLE),
    "dur.wal.sync_us.p50": ("us", "layers", DURABLE),
    "dur.wal.sync_us.p99": ("us", "layers", DURABLE),
    "dur.wal.fsyncs_per_post": ("count", "layers", DURABLE),
    "dur.wal.bytes_per_post": ("bytes", "layers", DURABLE),
    "dur.control.fsyncs_per_follow": ("count", "layers", DURABLE),
    "core.engine.build_ms": ("ms", "layers", "setup_s on both workloads"),
    "core.engine.offer_us_per_post": ("us", "layers", ENGINE),
    "core.engine.unibin.offer_us_per_post": ("us", "layers", ENGINE),
    "core.engine.neighborbin.offer_us_per_post": ("us", "layers", ENGINE),
    "core.engine.cliquebin.offer_us_per_post": ("us", "layers", ENGINE),
    "core.engine.comparisons_per_post": ("count", "layers", ENGINE),
    "core.engine.components_per_post": ("count", "layers", ENGINE),
    "core.engine.deliveries_per_post": ("count", "layers", ENGINE),
    "core.engine.admit_ratio": ("ratio", "layers", ENGINE),
    "core.engine.peak_mb": ("MiB", "layers", "server_rss_mb"),
    "author.components_ms": ("ms", "layers", "setup_s on both workloads"),
    "author.cover_ms": ("ms", "layers", "setup_s on both workloads"),
    "runtime.sharded.posts_per_s": (
        "posts/s", "layers",
        "ceiling of " + CAPACITY_NOTE + "; the gap is serve-path overhead"),
    "trace.attributed_pct": ("%", "run", "bookkeeping"),
    "trace.overhead_pct": ("%", "run", "bookkeeping"),
    "loadgen.late_p99_ms": ("ms", "drive:late_p99_ms",
                            "fresh_p99_ms on both workloads"),
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no firehose sources next to the benchmark")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "firehose_serve",
         "servebench"],
        stdout=sys.stderr, check=True)


def generate(seed, population):
    """Returns the cached data directory for `seed`, generating it once."""
    digest = hashlib.sha256()
    with open(CLIENT, "rb") as binary:
        digest.update(binary.read())
    digest.update(json.dumps([population, PREFIXES], sort_keys=True).encode())
    key = digest.hexdigest()[:16]
    data = os.path.join(BUILD, "data", f"seed{seed}-{key}")
    if os.path.isfile(os.path.join(data, "reference.txt")):
        return data
    tmp = f"{data}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    started = time.monotonic()
    out = subprocess.run(
        [CLIENT, "gen", f"--seed={seed}", f"--out={tmp}",
         f"--prefixes={PREFIXES}",
         f"--authors={population['authors']}",
         f"--posts_per_author={population['posts_per_author']}"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=PASS_TIMEOUT_S)
    log(f"generated seed {seed} in {time.monotonic() - started:.1f}s: "
        f"{out.stdout.strip().splitlines()[-1]}")
    shutil.rmtree(data, ignore_errors=True)
    os.rename(tmp, data)
    return data


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise BenchError("no result line")
    return json.loads(lines[-1])


class StatusSampler(threading.Thread):
    """Samples shard queue depths from the server's /statusz."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.url = f"http://127.0.0.1:{port}/statusz"
        self.stop = threading.Event()
        self.max_depth = 0
        self.samples = 0

    def run(self):
        while not self.stop.wait(0.05):
            try:
                with urllib.request.urlopen(self.url, timeout=1) as response:
                    status = json.loads(response.read().decode())
            except (OSError, ValueError):
                continue
            depths = list(status.get("runtime", {}).get("queue_depths", []))
            for task in status.get("watchdog", {}).get("tasks", []):
                if task.get("name") == "serve-shard":
                    depths.append(task.get("depth", 0))
            self.max_depth = max([self.max_depth] + depths)
            self.samples += 1


def run_pass(data, spec, tag, trace_out=None):
    """One served pass of a WORKLOADS-style `spec`; returns the client's
    result object."""
    work = os.path.join(BUILD, "run", f"{os.getpid()}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [SERVE, f"--graph={data}/author_graph.bin", "--port=0",
               f"--shards={SHARDS}", "--algorithm=cliquebin",
               f"--data_dir={work}/data", f"--wal_sync={spec['wal_sync']}"]
    if trace_out is not None:
        command.append("--debug_port=0")
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    sampler = None
    try:
        # The server prints its debug port (when asked) and then
        # "serving on 127.0.0.1:PORT", flushing once it accepts.
        watchdog = threading.Timer(30, server.kill)
        watchdog.start()
        port = debug_port = None
        for line in server.stdout:
            if line.startswith("debug server listening on"):
                debug_port = int(line.rsplit(":", 1)[1])
            if line.startswith("serving on"):
                port = int(line.split(":", 1)[1].split()[0])
                break
        watchdog.cancel()
        if port is None:
            raise BenchError(f"firehose_serve did not start: {command}")
        if debug_port is not None:
            sampler = StatusSampler(debug_port)
            sampler.start()
        drive = [CLIENT, "drive", f"--data={data}", f"--port={port}",
                 f"--server_pid={server.pid}", f"--posts={spec['posts']}"]
        drive += spec["drive"]
        if trace_out is not None:
            drive.append(f"--trace_out={trace_out}")
        out = subprocess.run(drive, stdout=subprocess.PIPE, text=True,
                             timeout=PASS_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError(f"servebench drive exited {out.returncode}")
        result = last_json(out.stdout)
    finally:
        if sampler is not None:
            sampler.stop.set()
            sampler.join()
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
        shutil.rmtree(work, ignore_errors=True)
    if sampler is not None:
        result["queue_depth_max"] = sampler.max_depth
        result["statusz_samples"] = sampler.samples
    return result


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def summarize(passes):
    attempted = sum(int(p["attempted"]) for p in passes)
    failed = sum(int(p["failed"]) for p in passes)
    correct = all(p["correct"] for p in passes) and failed == 0
    return correct, attempted, failed


def untraced_run(data, workload, seconds):
    passes = []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        result = run_pass(data, WORKLOADS[workload], f"p{len(passes)}")
        passes.append(result)
        log(f"pass {len(passes)}: " + json.dumps(
            {k: result.get(k) for k in END_TO_END}))
        now = time.monotonic()
        if not result["correct"]:
            break
        # Start another pass only if one as long as the last still ends
        # within --seconds (and, on a slow machine, within RUN_BUDGET_S).
        finish = now - started + (now - pass_started)
        if len(passes) >= MIN_PASSES and finish > seconds:
            break
        if finish > RUN_BUDGET_S:
            break
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [p[name] for p in passes if name in p]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return passes, metrics


def traced_run(data, workload, seed):
    spec = WORKLOADS[workload]
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, f"{workload}-seed{seed}")
    untraced = run_pass(data, spec, "untraced")
    passes = [untraced]
    if not untraced["correct"]:
        return passes, {}
    traced = run_pass(data, spec, "traced", trace_out=f"{stem}-drive.json")
    passes.append(traced)
    if not traced["correct"]:
        return passes, {}
    closed = run_pass(data, CAPACITY, "closed")
    passes.append(closed)
    if not closed["correct"]:
        return passes, {}
    scratch = os.path.join(BUILD, "run", f"{os.getpid()}-layers")
    out = subprocess.run(
        [CLIENT, "layers", f"--data={data}", f"--scratch={scratch}",
         f"--posts={CAPACITY_POSTS}", f"--wal_sync={spec['wal_sync']}",
         f"--flush_posts={spec.get('flush_posts', 0)}",
         f"--trace_out={stem}-layers.json"],
        stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    shutil.rmtree(scratch, ignore_errors=True)
    if out.returncode != 0:
        raise BenchError(f"servebench layers exited {out.returncode}")
    layers = last_json(out.stdout)

    e2e_us = 1e6 / closed["ingest_posts_per_s"]
    wal_us = (layers["dur.wal.append_us"] +
              layers["dur.wal.sync_us.p50"] * layers["dur.wal.fsyncs_per_post"])
    covered_us = (layers["net.proto.decode_ns_per_post"] / 1e3 +
                  wal_us * layers["net.placement.shards_per_post"] / SHARDS +
                  1e6 / layers["runtime.sharded.posts_per_s"])
    run_values = {
        "net.server.queue_depth.max": traced.get("queue_depth_max", 0),
        "net.server.closed_loop_posts_per_s": closed["ingest_posts_per_s"],
        "net.server.cpu_us_per_post": untraced["server_cpu_us_per_post"],
        "trace.attributed_pct": 100.0 * covered_us / e2e_us,
        "trace.overhead_pct": 100.0 * (traced["fresh_p50_ms"] /
                                       untraced["fresh_p50_ms"] - 1.0),
    }
    metrics = {}
    for name, (unit, source, _) in PER_LAYER.items():
        if source == "layers":
            value = layers[name]
        elif source.startswith("drive:"):
            value = traced[source.split(":", 1)[1]]
        else:
            value = run_values[name]
        metrics[name] = {"value": value, "unit": unit}
    return passes, metrics


def run(workload, seed, seconds, trace, population):
    build()
    data = generate(seed, population)
    if trace:
        passes, metrics = traced_run(data, workload, seed)
    else:
        passes, metrics = untraced_run(data, workload, seconds)
    correct, attempted, failed = summarize(passes)
    env = {"kernel": passes[-1].get("kernel", "unknown"),
           "nproc": os.cpu_count(),
           "data_dir_fs": filesystem_of(BUILD),
           "passes": len(passes)}
    print("env: " + json.dumps(env, sort_keys=True))
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump({"env": env, "passes": passes, "metrics": metrics}, f,
                  indent=1, sort_keys=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke():
    """Tiny-population check that every metric of BENCHMARK.json is
    printed with its unit on every workload, traced and untraced."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, 1, 1, trace, SMOKE_POPULATION)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: incorrect")
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(expected))} or units differ")
            log(f"smoke {workload} trace={trace}: "
                f"{len(got)} metrics, correct={result['correct']}")
    for problem in problems:
        log("smoke FAIL: " + problem)
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     POPULATION)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as error:
        log(f"servebench: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
