#!/usr/bin/env python3
"""One command that builds and runs the HIRE benchmark.

    python3 hirebench/run.py --workload serve_hot --seed 1 --seconds 40 --trace 0

Run from the root of a HIRE source tree. The first run builds hire_cli and
hirebench_tool into .bench_build/ (or $CARGO_TARGET_DIR) with CMake; later
runs reuse the build. Each run then

  * sets up the workload several times (dataset + user-cold split + HIRE
    training with core::TrainHire in hirebench_tool, then a real
    `hire_cli serve` boot to its first healthy /healthz) and measures the
    first server;
  * runs the paper's cold-start evaluation (core::EvaluateColdStart) on the
    trained model in-process;
  * drives /predict with an open-loop Poisson schedule from one generator
    process (one thread, requests pipelined over at most 4 keep-alive
    connections), timing each request from when it was due;
  * checks every output (see checks.py) and exits non-zero on a violation.

With --trace 0 it measures the fixed rate in chunks between the other parts
and prints the end-to-end metrics; with --trace 1 it measures the fixed
rate twice (spans off, then on), searches with a fixed number of steps for
the highest rate that meets the latency limit, replays the workload's own
requests through the serve path's public functions one call at a time, and
prints the per-module metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full report (per-phase
accounting, machine fingerprint, spans) goes to <build dir>/reports/.
See README.md for the workloads and the module -> metric map.
"""

import argparse
import fcntl
import hashlib
import http.client
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402  (sits next to this file)
from checks import CheckFailure  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

# Shared by every workload: the dataset and the model shape. The training,
# evaluation, replay and connection budgets are constants of hirebench_tool,
# which echoes them into the report.
COMMON = {
    # The dataset and the model are the same in every run: --seed draws the
    # requests (users, items, send times), so set-up, training and NDCG@5
    # compare like for like across seeds.
    "data_seed": 7,
    "scale": 1.0,            # 600 users, 500 items, 24000 ratings
    "context": 16,           # context users = items, train and serve
    "batch_window_us": 2000,
    "max_batch_users": 8,
    "latency_limit_ms": 50.0,
    "min_achieved_share": 0.98,
    "slo_steps": 4,
    # Samples at least behind every p99 (the fixed rate's kept chunks, an
    # SLO step): >= 10 lie beyond it.
    "p99_samples": 1000,
    # Generator p99 lateness above this (30% of the latency limit): an SLO
    # step fails and may retry, a fixed-rate chunk is not kept, and a kept
    # one makes the run invalid.
    "max_lateness_p99_ms": 15.0,
    "steal_limit": 0.05,     # hypervisor steal that lets a failed SLO step retry
    "attempts": 2,           # at most one retry per SLO step
    "retry_until_s": 40,     # no retry starts later in a run than this
    "warmup_s": 1.5,
}

WORKLOADS = {
    # Hot users, one shard: transport, co-batching and the fused forward.
    "serve_hot": {
        "shards": 1,
        "items": 3,
        "rate": 200.0,
        "hot_users": 64,
        "zipf_s": 1.1,
        "cache_capacity": 1024,
        "reload_every_s": 0.0,
        # The fixed-rate phase's parts, and how many of the quietest count.
        "fixed_chunks": 20,
        "kept_chunks": 6,
        "slo_range": (300.0, 900.0),
    },
    # Uniform users over 4x+ the plan cache, four shards, rolling reloads.
    "serve_cold_reload": {
        "shards": 4,
        "items": 8,
        "rate": 100.0,
        "hot_users": 0,
        "zipf_s": 0.0,
        "cache_capacity": 128,
        "reload_every_s": 2.0,
        "fixed_chunks": 15,      # one reload, in the middle of each
        "kept_chunks": 6,
        "slo_range": (120.0, 320.0),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "rss_mb": "MiB", "predict_p50_ms": "ms",
    "train_steps_per_s": "steps/s", "eval_lists_per_s": "lists/s",
    "eval_ndcg5": "1",
}

RUN_TIMEOUT_S = 170      # one workload run, after the build
BUILD_TIMEOUT_S = 850    # the first build in a fresh checkout


def log(message):
    print(message, file=sys.stderr, flush=True)


class RunTimeout(Exception):
    pass


def on_timeout(*_):
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S}s")


# --------------------------------------------------------------------------
# Child processes: every one is tracked and reaped on every exit path.

CHILDREN = []


def spawn(argv, **kwargs):
    process = subprocess.Popen(argv, start_new_session=True, **kwargs)
    CHILDREN.append(process)
    return process


def reap(process, grace_s=5.0):
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if process in CHILDREN:
        CHILDREN.remove(process)


def reap_all():
    for process in list(CHILDREN):
        reap(process, grace_s=2.0)


def run_tool(argv, timeout_s):
    """Runs a child to completion; returns its stdout's last line as JSON."""
    process = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True)
    try:
        out, err = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{os.path.basename(argv[0])} {argv[1]} timed out")
    finally:
        reap(process)
    if process.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited "
                           f"{process.returncode}: {err.strip()[-2000:]}")
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# Build.

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO_ROOT, base) if not os.path.isabs(base) else base


def build(out_dir):
    cmake_dir = os.path.join(out_dir, "hirebench-cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_log = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock, \
            open(build_log, "a") as sink:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "hire_cli",
                      "hirebench_tool", "-j", jobs])
        for argv in steps:
            process = spawn(argv, stdout=sink, stderr=subprocess.STDOUT)
            try:
                code = process.wait(timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = -1
            finally:
                reap(process)
            if code != 0:
                with open(build_log) as tail:
                    log("".join(tail.readlines()[-40:]))
                raise RuntimeError(f"build step failed: {' '.join(argv)}")
    return {
        "hire_cli": os.path.join(cmake_dir, "hire", "tools", "hire_cli"),
        "tool": os.path.join(cmake_dir, "hirebench_tool"),
        "cmake_dir": cmake_dir,
    }


# --------------------------------------------------------------------------
# Machine fingerprint, recorded with every result.

def fingerprint(binaries):
    cpu_model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu_model == "unknown":
                    cpu_model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    isa = sorted(flags & {"sse4_2", "avx", "avx2", "fma", "avx512f",
                          "avx512bw", "avx512vl", "avx512_vnni", "amx_tile"})
    compiler, build_type = "unknown", "unknown"
    cache = os.path.join(binaries["cmake_dir"], "CMakeCache.txt")
    with open(cache) as entries:
        for line in entries:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler_path = line.split("=", 1)[1].strip()
                try:
                    compiler = subprocess.run(
                        [compiler_path, "--version"], capture_output=True,
                        text=True, timeout=10).stdout.splitlines()[0]
                except (OSError, IndexError, subprocess.SubprocessError):
                    compiler = compiler_path
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "isa": isa,
        "compiler": compiler,
        "build_type": build_type,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(start, end):
    """Share of CPU time the hypervisor stole between two cpu_times()."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    roots = [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tools"),
             BENCH_DIR]
    paths = [os.path.join(REPO_ROOT, "CMakeLists.txt")]
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths += [os.path.join(folder, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, REPO_ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# The measured server.

class Server:
    """One `hire_cli serve` process on an ephemeral port."""

    def __init__(self, binaries, workdir, model_path, workload):
        self.log_path = os.path.join(workdir, f"server-{time.time_ns()}.log")
        argv = [
            binaries["hire_cli"], "serve",
            # The same synthetic profile hirebench_tool trains on.
            "--profile=movielens", f"--scale={COMMON['scale']}",
            f"--seed={COMMON['data_seed']}", f"--model={model_path}",
            "--port=0",
            f"--shards={workload['shards']}",
            f"--context={COMMON['context']}",
            f"--batch-window-us={COMMON['batch_window_us']}",
            f"--max-batch-users={COMMON['max_batch_users']}",
            f"--cache-capacity={workload['cache_capacity']}",
            "--log-level=warn",
        ]
        self.sink = open(self.log_path, "w")
        self.process = spawn(argv, stdout=self.sink, stderr=subprocess.STDOUT)
        self.port = None

    def wait_healthy(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError("server exited during boot: " + self.tail())
            if time.monotonic() > deadline:
                raise RuntimeError("server never printed SERVE_LISTENING")
            with open(self.log_path) as out:
                match = re.search(r"SERVE_LISTENING port=(\d+)", out.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        while True:
            try:
                status, health = self.get_json("/healthz")
                if status == 200 and health.get("status") == "ok":
                    return health
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def request(self, method, path, body=None, timeout_s=30.0):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=timeout_s)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read().decode()
        finally:
            connection.close()

    def get_json(self, path):
        status, body = self.request("GET", path)
        return status, json.loads(body)

    def metrics(self):
        status, snapshot = self.get_json("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return snapshot

    def peak_rss_mib(self):
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def tail(self):
        with open(self.log_path) as out:
            return out.read()[-2000:]

    def stop(self):
        if self.process.poll() is None:
            try:
                self.request("POST", "/shutdown", timeout_s=5.0)
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        reap(self.process)
        self.sink.close()


# --------------------------------------------------------------------------
# Workload inputs, all derived from the seed.

def make_schedule(rng, workload, dataset, rate, count, hot_users,
                  cover_hot=False):
    """`count` Poisson arrivals at `rate`: a list of (due_us, user, items).
    With `cover_hot`, the first requests visit every hot user once."""
    requests = []
    weights = None
    if hot_users:
        weights = [1.0 / (k + 1) ** workload["zipf_s"]
                   for k in range(len(hot_users))]
    due = 0.0
    first = list(hot_users) if cover_hot else []
    while len(requests) < max(count, len(first)):
        due += rng.expovariate(rate)
        if first:
            user = first.pop(0)
        elif hot_users:
            user = rng.choices(hot_users, weights)[0]
        else:
            user = rng.randrange(dataset["num_users"])
        items = rng.sample(range(dataset["num_items"]), workload["items"])
        requests.append((int(due * 1e6), user, items))
    return requests


def write_schedule(path, requests):
    with open(path, "w") as out:
        for due_us, user, items in requests:
            out.write(f"{due_us} {user} {','.join(map(str, items))}\n")


# --------------------------------------------------------------------------
# One open-loop phase.

class Reloader(threading.Thread):
    """Rolling POST /reload every `period_s` while a phase runs; checks
    that every shard lands the new version (checks.check_reload)."""

    def __init__(self, server, model_paths, period_s, version, spans):
        super().__init__(daemon=True)
        self.server, self.model_paths = server, model_paths
        self.period_s, self.version = period_s, version
        self.spans = spans
        self.stop_event = threading.Event()
        self.reload_ms = []
        self.error = None

    def run(self):
        # The first reload comes half a period in, so a phase one period
        # long reloads once, in its middle.
        k, delay = 0, 0.5 * self.period_s
        while not self.stop_event.wait(delay):
            try:
                self.reload_once(self.model_paths[k % len(self.model_paths)])
            except (CheckFailure, OSError, RuntimeError, ValueError) as error:
                self.error = error
                return
            k, delay = k + 1, self.period_s

    def reload_once(self, model_path):
        body = json.dumps({"model": model_path})
        start = time.perf_counter()
        status, reply = self.server.request("POST", "/reload", body)
        elapsed = time.perf_counter() - start
        self.spans.add("POST /reload", start, elapsed)
        if status != 200:
            raise CheckFailure(f"/reload answered {status}: {reply}")
        _, health = self.server.get_json("/healthz")
        self.version = checks.check_reload(json.loads(reply), health,
                                           self.version)
        self.reload_ms.append(elapsed * 1e3)


class Spans:
    """Spans recorded by run.py itself (around /predict phases, /reload and
    /metrics), kept in memory and written when the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.events = []
        self.lock = threading.Lock()

    def add(self, name, start, duration_s):
        if not self.enabled:
            return
        with self.lock:
            self.events.append({
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - self.origin) * 1e6, "dur": duration_s * 1e6})


def scrape(server, spans):
    start = time.perf_counter()
    snapshot = server.metrics()
    spans.add("GET /metrics", start, time.perf_counter() - start)
    return snapshot


def run_phase(name, ctx, requests, traced=False, reload=False):
    """Sends `requests` open-loop and checks every answer. Returns the
    phase's accounting and latency samples."""
    server, dataset, workdir = ctx["server"], ctx["dataset"], ctx["workdir"]
    schedule_path = os.path.join(workdir, f"{name}.schedule")
    out_path = os.path.join(workdir, f"{name}.tsv")
    write_schedule(schedule_path, requests)
    argv = [ctx["binaries"]["tool"], "load", f"--port={server.port}",
            f"--schedule={schedule_path}", f"--out={out_path}"]
    if traced:
        argv.append("--trace-out=" + os.path.join(workdir,
                                                  f"{name}.trace.json"))
    before = scrape(server, ctx["spans"])
    reloader = None
    if reload and ctx["workload"]["reload_every_s"] > 0:
        reloader = Reloader(server, ctx["model_paths"],
                            ctx["workload"]["reload_every_s"],
                            ctx["model_version"], ctx["spans"])
        reloader.start()
    start = time.perf_counter()
    duration_s = requests[-1][0] / 1e6 if requests else 0.0
    try:
        summary = run_tool(argv, timeout_s=duration_s + 60)
    finally:
        if reloader is not None:
            reloader.stop_event.set()
            reloader.join()
    ctx["spans"].add(f"phase {name}", start, time.perf_counter() - start)
    after = scrape(server, ctx["spans"])
    if reloader is not None:
        if reloader.error is not None:
            raise reloader.error
        ctx["model_version"] = reloader.version

    phase = {"name": name, "sent": len(requests), "ok": 0, "non_200": {},
             "transport_errors": 0, "bad_bodies": 0, "reloads": 0,
             "connections": summary["connections"],
             "max_depth": summary["max_depth"],
             "busy_s": summary["busy_us"] / 1e6}
    latencies_ms, client_overhead_us, late_ms, violations = [], [], [], []
    last_due_us = last_done_us = 0.0
    pipelined = 0
    with open(out_path) as records:
        for line in records:
            index, status, due, send, done, late, depth, body = \
                line.rstrip("\n").split("\t", 7)
            index, status = int(index), int(status)
            due, send, done, late = (float(due), float(send), float(done),
                                     float(late))
            last_due_us = max(last_due_us, due)
            last_done_us = max(last_done_us, done)
            late_ms.append(late / 1e3)
            pipelined += int(depth) > 0
            _, user, items = requests[index]
            if status == 0:
                phase["transport_errors"] += 1
                latencies_ms.append(math.inf)
                continue
            if status != 200:
                phase["non_200"][str(status)] = \
                    phase["non_200"].get(str(status), 0) + 1
                latencies_ms.append(math.inf)
                continue
            try:
                reply = checks.check_predict_body(
                    body, user, len(items), dataset["max_rating"])
            except CheckFailure as error:
                phase["bad_bodies"] += 1
                violations.append(f"{name}: request {index}: {error}")
                latencies_ms.append(math.inf)
                continue
            phase["ok"] += 1
            latencies_ms.append((done - due) / 1e3)
            if int(depth) == 0:
                # Time on the wire and in the event loop; a request written
                # behind another on its connection also waited for that one.
                client_overhead_us.append((done - send) - reply["latency_us"])
    deltas = checks.outcome_deltas(before, after)
    try:
        checks.check_outcome_sum(deltas, phase["sent"])
    except CheckFailure as error:
        violations.append(f"{name}: {error}")
    failed = phase["sent"] - phase["ok"]
    if reloader is not None:
        phase["reloads"] = len(reloader.reload_ms)
        if failed:
            violations.append(f"{name}: {failed} request(s) failed under "
                              "rolling reload")
    phase.update({
        "failed": failed,
        "offered_rps": phase["sent"] / max(last_due_us / 1e6, 1e-9),
        "achieved_rps": phase["ok"] / max(last_done_us / 1e6, 1e-9),
        "outcomes": deltas,
        "schedule_s": max(last_due_us / 1e6, 1e-9),
        "duration_s": max(last_done_us / 1e6, 1e-9),
        "p50_ms": checks.quantile(latencies_ms, 0.50),
        "p99_ms": checks.quantile(latencies_ms, 0.99),
        "samples": len(latencies_ms),
        "lateness_p99_ms": checks.quantile(late_ms, 0.99) if late_ms else 0.0,
        # Share of requests written while an earlier one was unanswered on
        # their connection: they waited in the server behind it, because
        # the event loop serves one request per connection at a time.
        "pipelined_share": pipelined / max(1, phase["sent"]),
        # The rate the server could not pass on these connections at this
        # phase's time per request.
        "in_flight_ceiling_rps": phase["connections"] * phase["ok"]
        / max(phase["busy_s"], 1e-9),
    })
    return {"phase": phase, "before": before, "after": after,
            "violations": violations, "latencies_ms": latencies_ms,
            "client_overhead_us": client_overhead_us,
            "reload_ms": reloader.reload_ms if reloader else []}


def on_schedule(phase):
    return phase["lateness_p99_ms"] <= COMMON["max_lateness_p99_ms"]


def meets_limit(phase):
    """The SLO: p99 within the limit, no backlog, no failed request, and a
    generator that kept its schedule (so the rate was really offered)."""
    return (phase["failed"] == 0
            and phase["p99_ms"] <= COMMON["latency_limit_ms"]
            and phase["achieved_rps"]
            >= COMMON["min_achieved_share"] * phase["offered_rps"]
            and on_schedule(phase))


# --------------------------------------------------------------------------
# Set-up and the offline protocol.

def setup_once(ctx, index, traced):
    """Dataset + split + TrainHire + save, then a server boot to healthy."""
    binaries, workdir = ctx["binaries"], ctx["workdir"]
    model_path = os.path.join(workdir, f"model-{index}.bin")
    argv = [binaries["tool"], "prepare", f"--seed={COMMON['data_seed']}",
            f"--scale={COMMON['scale']}", f"--context={COMMON['context']}",
            f"--out={model_path}"]
    if traced:
        argv.append("--trace-out=" + os.path.join(workdir,
                                                  f"prepare-{index}.trace"))
    start = time.perf_counter()
    prepared = run_tool(argv, timeout_s=120)
    server = Server(binaries, workdir, model_path, ctx["workload"])
    health = server.wait_healthy()
    elapsed = time.perf_counter() - start
    ctx["spans"].add("setup", start, elapsed)
    return server, model_path, prepared, elapsed, health


def run_eval(ctx, model_path, traced):
    argv = [ctx["binaries"]["tool"], "eval",
            f"--seed={COMMON['data_seed']}", f"--scale={COMMON['scale']}",
            f"--context={COMMON['context']}", f"--model={model_path}"]
    if traced:
        argv.append("--trace-out=" + os.path.join(ctx["workdir"],
                                                  "eval.trace"))
    return run_tool(argv, timeout_s=120)


# --------------------------------------------------------------------------
# The run.

def run(args):
    workload = WORKLOADS[args.workload]
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    binaries = build(out_dir)
    signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(RUN_TIMEOUT_S)
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(out_dir, "tmp"))
    traced = bool(args.trace)
    ctx = {"binaries": binaries, "workdir": workdir,
           "workload": workload, "spans": Spans(traced),
           "model_version": 0, "model_paths": []}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "common": COMMON, "config": workload,
              "fingerprint": fingerprint(binaries)}
    violations = []
    server = None
    cpu_start = cpu_times()
    try:
        # Steal is the share of CPU time the hypervisor gives to other
        # guests. It is measured around every part of the run (a set-up, an
        # evaluation, a fixed-rate chunk, an SLO step) and recorded in the
        # report. Other guests can only make an SLO step fail, so a step
        # that failed under more than COMMON["steal_limit"] steal, or with
        # the generator late, is run once more on the same requests while
        # the run is young enough; a passing attempt counts. Every attempt's
        # requests are still checked and accounted.
        started = time.monotonic()
        report["steal_retries"] = []

        def timed(measure):
            before = cpu_times()
            result = measure()
            return steal_share(before, cpu_times()) or 0.0, result

        def retried(label, measure, passed):
            attempts = [timed(measure)]
            while (not passed(attempts[-1][1])
                   and (attempts[-1][0] > COMMON["steal_limit"]
                        or not on_schedule(attempts[-1][1]["phase"]))
                   and len(attempts) < COMMON["attempts"]
                   and time.monotonic() - started < COMMON["retry_until_s"]):
                attempts.append(timed(measure))
            if len(attempts) > 1:
                report["steal_retries"].append(
                    {"part": label, "steal_shares": [a for a, _ in attempts]})
            return min(attempts, key=lambda a: (not passed(a[1]), a[0]))[1]

        # The first set-up's server is the one measured. The other set-ups
        # (untraced runs only) are spread through the run, timed and
        # stopped again.
        setups, model_bytes = [], set()

        def set_up():
            booted, model_path, prepared, elapsed, health = setup_once(
                ctx, len(ctx["model_paths"]), traced)
            ctx["model_paths"].append(model_path)
            with open(model_path, "rb") as model:
                model_bytes.add(hashlib.sha256(model.read()).hexdigest())
            if not prepared["losses_finite"]:
                violations.append(f"set-up {model_path}: non-finite loss")
            return booted, health, (elapsed, prepared)

        def set_up_timed():
            booted, _, timing = set_up()
            booted.stop()
            setups.append(timing)

        server, health, timing = set_up()
        setups.append(timing)
        ctx["server"] = server
        ctx["model_version"] = health["model_version"]
        dataset = {k: timing[1][k] for k in
                   ("num_users", "num_items", "min_rating", "max_rating")}
        ctx["dataset"] = dataset

        evaluations = []

        def evaluate():
            result = run_eval(ctx, ctx["model_paths"][0], traced)
            first = (evaluations or [result])[0]["ndcg5"][0]
            if any(ndcg5 != first for ndcg5 in result["ndcg5"]):
                violations.append(
                    "NDCG@5 is not bit-identical across evaluations of one "
                    f"model: {first} vs {result['ndcg5']}")
            evaluations.append(result)

        evaluate()

        rng = random.Random(f"hirebench:{args.workload}:{args.seed}")
        hot = []
        if workload["hot_users"]:
            hot = rng.sample(range(dataset["num_users"]),
                             workload["hot_users"])
        phases = []

        def phase(name, rate, count, **kwargs):
            requests = make_schedule(rng, workload, dataset, rate, count, hot,
                                     cover_hot=name == "warmup")
            result = run_phase(name, ctx, requests, **kwargs)
            violations.extend(result["violations"])
            phases.append(result["phase"])
            return result

        def retried_phase(name, rate, count, **kwargs):
            # A retry sends the same requests again.
            requests = make_schedule(rng, workload, dataset, rate, count, hot)

            def attempt():
                result = run_phase(name, ctx, requests, **kwargs)
                violations.extend(result["violations"])
                phases.append(result["phase"])
                return result

            return retried(name, attempt, lambda r: meets_limit(r["phase"]))

        rate = workload["rate"]
        phase("warmup", rate, round(rate * COMMON["warmup_s"]))
        if traced:
            count = round(rate * 0.3 * args.seconds)
            untraced = phase("fixed", rate, count, reload=True)
            measured = phase("fixed_traced", rate, count, traced=True,
                             reload=True)
            fixed_runs = [untraced]
            report["slo_search"] = slo_search(retried_phase, workload,
                                              0.05 * args.seconds)
        else:
            # Three quarters of --seconds go to the fixed rate, in chunks
            # spread over the run between the other parts. The latency
            # metrics pool the quietest chunks (least steal), so a slow
            # stretch of the host drops out instead of setting the numbers.
            chunks, kept = workload["fixed_chunks"], workload["kept_chunks"]
            count = max(round(rate * 0.75 * args.seconds / chunks),
                        math.ceil(COMMON["p99_samples"] / kept))
            between = [set_up_timed, evaluate, set_up_timed, evaluate]
            after_chunk = {round((j + 1) * chunks / (len(between) + 1)) - 1:
                           part for j, part in enumerate(between)}
            chunk_runs = []
            for k in range(chunks):
                steal, result = timed(
                    lambda: phase(f"fixed_{k}", rate, count, reload=True))
                result["phase"]["steal_share"] = steal
                chunk_runs.append((steal, result))
                if k in after_chunk:
                    after_chunk[k]()
            quietest = sorted(chunk_runs,
                              key=lambda c: (not on_schedule(c[1]["phase"]),
                                             c[0]))[:kept]
            fixed_runs = [result for _, result in quietest]
        if len(model_bytes) != 1:
            violations.append("TrainHire is not deterministic: identical "
                              "set-ups saved different models")
        setup_s = [elapsed for elapsed, _ in setups]
        prepared_runs = [prepared for _, prepared in setups]
        report["setup"] = {"setup_s": setup_s, "prepare": prepared_runs}
        evaluation = {"lists": evaluations[0]["lists"],
                      "threads": evaluations[0]["threads"],
                      "ndcg5": evaluations[0]["ndcg5"][0],
                      "predict_seconds": [seconds for e in evaluations
                                          for seconds in e["predict_seconds"]]}
        report["eval"] = evaluation

        # The fixed rate, over the kept chunks as one phase.
        kept_phases = [r["phase"] for r in fixed_runs]
        latencies = [ms for r in fixed_runs for ms in r["latencies_ms"]]
        sent = sum(p["sent"] for p in kept_phases)
        fixed = {
            "p50_ms": checks.quantile(latencies, 0.50),
            "p99_ms": checks.quantile(latencies, 0.99),
            "samples": len(latencies),
            "samples_beyond_p99": len(latencies)
            - math.ceil(0.99 * len(latencies)),
            "failed": sum(p["failed"] for p in kept_phases),
            "offered_rps": sent / sum(p["schedule_s"] for p in kept_phases),
            "achieved_rps": sum(p["ok"] for p in kept_phases)
            / sum(p["duration_s"] for p in kept_phases),
            "lateness_p99_ms": max(p["lateness_p99_ms"] for p in kept_phases),
            "chunks": [p["name"] for p in kept_phases]}
        report["fixed_rate"] = fixed
        p50 = fixed["p50_ms"]
        if not on_schedule(fixed):
            report["invalid"] = (
                f"generator p99 lateness {fixed['lateness_p99_ms']:.3f} ms "
                f"in a kept fixed-rate chunk > "
                f"{COMMON['max_lateness_p99_ms']} ms")
        elif traced and report["slo_search"]["slo_rps"] is None:
            # No step of the range met the limit. The fixed rate is the
            # range's floor: when its chunks met the limit, that is the
            # highest rate known to meet it.
            if meets_limit(fixed):
                report["slo_search"]["slo_rps"] = fixed["achieved_rps"]
                report["slo_search"]["below_range"] = True
            else:
                report["invalid"] = (
                    "neither an SLO step nor the fixed rate met the limit")
        if "invalid" in report:
            report["phases"] = phases
            write_report(out_dir, args, report, ctx)
            log("INVALID RUN: " + report["invalid"])
            return 4

        rss_mb = server.peak_rss_mib()
        if traced:
            metrics = per_layer_metrics(ctx, report, measured, untraced,
                                        prepared_runs[0], evaluation)
        else:
            # The host runs slow for tens of seconds at a time: training
            # takes the median of the run's steps, the evaluation the mean
            # over all the run's passes, which are spread over it.
            steps = [t for p in prepared_runs for t in p["step_seconds"]]
            passes = evaluation["predict_seconds"]
            metrics = {
                "setup_s": checks.median(setup_s),
                "rss_mb": rss_mb,
                "predict_p50_ms": p50,
                "train_steps_per_s": 1.0 / checks.median(steps),
                "eval_lists_per_s": evaluation["lists"] * len(passes)
                / sum(passes),
                "eval_ndcg5": float(evaluation["ndcg5"]),
            }
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in metrics.items()}
        report["phases"] = phases
        report["host_steal_share"] = steal_share(cpu_start, cpu_times())
        report["violations"] = violations
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        write_report(out_dir, args, report, ctx)
    finally:
        if server is not None:
            server.stop()
        reap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print_report(report)
    correct = not violations and all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for v, _ in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}), flush=True)
    return 0 if correct else 1


def slo_search(phase, workload, step_s):
    """Bisects (geometrically) a fixed range with a fixed number of steps
    for the highest offered rate that meets the limit. Each step lasts
    `step_s` or sends 1000 requests, whichever is more. The reported value
    is the throughput achieved at the highest passing rate; None when no
    step passed.

    Each step also records its in-flight ceiling: the event loop serves one
    request per connection at a time, so with the generator's few
    connections the server cannot pass connections / (mean time it holds a
    connection per request)."""
    low, high = workload["slo_range"]
    best, tried = None, []
    for step in range(COMMON["slo_steps"]):
        rate = math.sqrt(low * high)
        count = max(COMMON["p99_samples"], round(rate * step_s))
        result = phase(f"slo_{step}", rate, count, reload=True)
        p = result["phase"]
        ok = meets_limit(p)
        tried.append({"offered_rps": p["offered_rps"], "rate": rate,
                      "achieved_rps": p["achieved_rps"], "p50_ms": p["p50_ms"],
                      "p99_ms": p["p99_ms"], "failed": p["failed"],
                      "lateness_p99_ms": p["lateness_p99_ms"],
                      "pipelined_share": p["pipelined_share"],
                      "in_flight_ceiling_rps": p["in_flight_ceiling_rps"],
                      "meets_limit": ok})
        if ok:
            best, low = tried[-1], rate
        else:
            high = rate
    return {"slo_rps": best["achieved_rps"] if best else None,
            "in_flight_ceiling_rps":
                best["in_flight_ceiling_rps"] if best else None,
            "steps": tried, "range": workload["slo_range"]}


def per_layer_metrics(ctx, report, measured, untraced, prepared, evaluation):
    """Per-module numbers from the traced run (README.md has the map)."""
    server, spans = ctx["server"], ctx["spans"]
    before, after = measured["before"], measured["after"]
    fixed = measured["phase"]
    served = max(1, fixed["ok"])

    def stage(name, q):
        bounds, counts, _ = checks.histogram_delta(
            before, after, f"serve.stage.{name}_us.served")
        return checks.histogram_quantile(bounds, counts, q)

    def delta(name):
        return checks.counter_delta(before, after, name)

    batches = max(1, delta("serve.batches"))
    hits, misses = (delta("serve.context_cache.hits"),
                    delta("serve.context_cache.misses"))
    routed = [delta(f"serve.shard.{i}.routed")
              for i in range(ctx["workload"]["shards"])]
    reload_ms = list(measured["reload_ms"])
    if not reload_ms:
        # No reloads under load on this workload: time one on the idle
        # server so the number exists on every workload.
        reloader = Reloader(server, ctx["model_paths"], 0.0,
                            ctx["model_version"], spans)
        reloader.reload_once(ctx["model_paths"][-1])
        ctx["model_version"] = reloader.version
        reload_ms = reloader.reload_ms
    final = scrape(server, spans)
    _, pack_counts, pack_sum = checks.histogram_delta(
        {}, final, "serve.snapshot.pack_us")

    schedule_path = os.path.join(ctx["workdir"], "fixed_traced.schedule")
    replay = run_tool([
        ctx["binaries"]["tool"], "replay", f"--seed={COMMON['data_seed']}",
        f"--scale={COMMON['scale']}", f"--context={COMMON['context']}",
        f"--model={ctx['model_paths'][-1]}", f"--schedule={schedule_path}",
        "--trace-out=" + os.path.join(ctx["workdir"], "replay.trace")],
        timeout_s=120)
    report["replay"] = replay

    steps = prepared["steps"]
    per_step_ms = {
        "train.step_ms": prepared["train_seconds"],
        "train.matmul_ms": prepared["matmul_seconds"],
        "train.attention_ms": prepared["attention_seconds"],
        "train.softmax_ms": prepared["softmax_seconds"],
        "train.layernorm_ms": prepared["layernorm_seconds"],
        "train.embedding_ms": prepared["embedding_seconds"],
        "train.optimizer_ms": prepared["optimizer_seconds"],
        "train.sampling_ms": prepared["sampling_seconds"],
    }
    untraced_p50 = untraced["phase"]["p50_ms"]
    metrics = {
        "http.admission_us.p50": (stage("admission", 0.5), "us"),
        "http.admission_us.p99": (stage("admission", 0.99), "us"),
        "http.serialize_us.p50": (stage("serialize", 0.5), "us"),
        "http.write_us.p50": (stage("write", 0.5), "us"),
        "http.client_overhead_us.p50": (
            checks.median(measured["client_overhead_us"]), "us"),
        "batcher.queue_us.p50": (stage("queue", 0.5), "us"),
        "batcher.queue_us.p99": (stage("queue", 0.99), "us"),
        "batcher.batch_form_us.p50": (stage("batch_form", 0.5), "us"),
        "batcher.forward_us.p50": (stage("forward", 0.5), "us"),
        "batcher.forward_us.p99": (stage("forward", 0.99), "us"),
        "batcher.users_per_forward": (
            delta("serve.batched_users") / batches, "users"),
        "batcher.shed": (delta("serve.outcome.shed"), "count"),
        "batcher.expired": (delta("serve.outcome.expired"), "count"),
        "cache.hit_ratio": (hits / max(1, hits + misses), "1"),
        "cache.evictions_per_req": (
            delta("serve.context_cache.evictions") / served, "1"),
        "router.balance_max_over_uniform": (
            max(routed) / max(1e-9, sum(routed) / len(routed)), "1"),
        "router.reload_ms": (checks.median(reload_ms), "ms"),
        "router.reload_failed_requests": (
            fixed["failed"] if measured["reload_ms"] else 0, "count"),
        "engine.pack_us": (pack_sum / max(1, sum(pack_counts)), "us"),
        "core.plan_us": (replay["plan_us"], "us"),
        "graph.assemble_us": (replay["assemble_us"], "us"),
        "core.thin_us": (replay["thin_us"], "us"),
        "graph.train_context_us": (replay["train_context_us"], "us"),
        "core.predict_us": (replay["predict_us"], "us"),
        "core.predict_gflop_per_s": (replay["predict_gflop_per_s"],
                                     "GFLOP/s"),
        "kernel.infer.fused_attention_ns_per_fwd": (
            delta("kernel.infer.fused_attention_nanos") / batches, "ns"),
        "kernel.infer.fused_gemm_ns_per_fwd": (
            delta("kernel.infer.fused_gemm_nanos") / batches, "ns"),
        "kernel.infer.arena_ns_per_fwd": (
            delta("kernel.infer.arena_nanos") / batches, "ns"),
        "eval.predict_ms_per_list": (
            1e3 * sum(evaluation["predict_seconds"])
            / (evaluation["lists"] * len(evaluation["predict_seconds"])),
            "ms"),
        "predict_p99_ms": (untraced["phase"]["p99_ms"], "ms"),
        "predict_slo_rps": (report["slo_search"]["slo_rps"], "req/s"),
        "gen.lateness_p99_ms": (fixed["lateness_p99_ms"], "ms"),
        "trace.predict_p50_ms": (fixed["p50_ms"], "ms"),
        "trace.overhead_p50_ms": (fixed["p50_ms"] - untraced_p50, "ms"),
    }
    for name, seconds in per_step_ms.items():
        metrics[name] = (1e3 * seconds / steps, "ms")
    return metrics


# --------------------------------------------------------------------------
# Output.

def write_report(out_dir, args, report, ctx):
    reports = os.path.join(out_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if ctx["spans"].enabled:
        events = list(ctx["spans"].events)
        for name in sorted(os.listdir(ctx["workdir"])):
            if name.endswith(".trace") or name.endswith(".trace.json"):
                with open(os.path.join(ctx["workdir"], name)) as trace:
                    for event in json.load(trace)["traceEvents"]:
                        event["pid"] = name
                        events.append(event)
        with open(os.path.join(reports, stem + ".trace.json"), "w") as out:
            json.dump({"traceEvents": events}, out)
        report["trace_file"] = os.path.join(reports, stem + ".trace.json")
    with open(os.path.join(reports, stem + ".json"), "w") as out:
        json.dump(report, out, indent=1, default=str)


def print_report(report):
    print(f"hirebench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    fp = report["fingerprint"]
    print(f"machine: {fp['cpu_model']} nproc={fp['nproc']} "
          f"isa={','.join(fp['isa'])} compiler={fp['compiler']} "
          f"build={fp['build_type']} commit={fp['git_commit']} "
          f"source_sha256={fp['source_sha256'][:16]} "
          f"steal_share={report.get('host_steal_share')}")
    for p in report["phases"]:
        print(f"phase {p['name']}: sent={p['sent']} ok={p['ok']} "
              f"non_200={p['non_200']} transport_errors="
              f"{p['transport_errors']} bad_bodies={p['bad_bodies']} "
              f"offered={p['offered_rps']:.1f}/s "
              f"achieved={p['achieved_rps']:.1f}/s p50={p['p50_ms']:.3f}ms "
              f"p99={p['p99_ms']:.3f}ms (n={p['samples']}) "
              f"lateness_p99={p['lateness_p99_ms']:.3f}ms "
              f"pipelined={p['pipelined_share']:.3f} "
              f"reloads={p['reloads']}"
              + (f" steal={p['steal_share']:.3f}" if "steal_share" in p
                 else ""))
    fixed = report.get("fixed_rate")
    if fixed:
        print(f"fixed rate: p50={fixed['p50_ms']:.3f}ms "
              f"p99={fixed['p99_ms']:.3f}ms over {fixed['samples']} samples "
              f"({fixed['samples_beyond_p99']} beyond p99) from "
              f"{', '.join(fixed['chunks'])}")
    slo = report.get("slo_search")
    if slo and slo.get("below_range"):
        print(f"slo: no step of {slo['range']} met the limit; the fixed "
              f"rate did, at {slo['slo_rps']:.1f} req/s achieved")
    elif slo:
        print(f"slo: {slo['slo_rps']:.1f} req/s achieved; in-flight "
              f"ceiling {slo['in_flight_ceiling_rps']:.1f} req/s")
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for violation in report["violations"]:
        print("VIOLATION " + violation)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_ROOT, "src", "serve"))):
        log(f"hirebench: no HIRE source tree at {REPO_ROOT} "
            "(expected CMakeLists.txt and src/serve/)")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except CheckFailure as error:
        log(f"hirebench: correctness check failed: {error}")
        return 1
    except Exception as error:  # noqa: BLE001 — report, reap, fail
        log(f"hirebench: {type(error).__name__}: {error}")
        return 3
    finally:
        reap_all()


if __name__ == "__main__":
    sys.exit(main())
