"""The repo benchmark: three TCP-served workloads on the compiled tier.

    python3 perfbench/run.py --workload warm-single --seed 1 --seconds 10 --trace 0

Run from the repository root.  One invocation:

1. copies ``src/repro`` into a fresh directory under ``.bench_build/`` and
   force-builds the C kernel extension there (``setup.py build_ext``), so
   the numbers never come from a stale ``.so``;
2. generates a ``bernoulli_panel`` (M users, 8 boolean attributes) and
   the request sequence from ``--seed``;
3. sets up ``SETUPS`` times — publish with ``CounterPRF`` over a 2-worker
   pool, save columnar, start ``perfbench/serve.py`` (its own process,
   ``REPRO_KERNEL=c``), connect the analyst, warm up — and reports the
   median set-up cost;
4. drives each server, right after its set-up, with a closed loop of one
   analyst connection for an equal share of ``--seconds`` seconds;
5. tears each server (and any shard workers) down, checks that no
   process of its group survives, and at the end compares every reply
   byte for byte with a single-store ``QueryEngine`` over the same store
   (the parity gate).

The end-to-end metrics are CPU time (see ``cputime.py``): on a shared
host, wall time mostly measures the neighbours.  Wall-clock throughput
and latency are printed in the table for reading, not reported.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced server (see ``tracing.py``) plus the tracing overhead
against an untraced window of the same invocation.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit code 0 means the run finished and every check passed;
1 means a check failed; 2 means the sources to benchmark are missing;
130 means it was interrupted (after tearing everything down).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter

#: Set-ups per run; ``setup_s`` and ``publish_s`` are their medians.
SETUPS = 2
#: Closed-loop analyst connections.  One: with a single request in
#: flight, the serving processes' CPU time between two sends belongs to
#: one request, and no request waits behind another.
ANALYSTS = 1
PUBLISH_WORKERS = 2
#: Token-bucket rate per analyst: far above any rate reached.
RATE_LIMIT = 1e6
SERVER_START_TIMEOUT = 120.0
SERVER_STOP_TIMEOUT = 30.0
#: Whole-run limit: a hung run fails (and tears down) instead of lingering.
TIME_LIMIT = 170

#: Reported with ``--trace 0``; all CPU time but the RSS.
END_TO_END = [
    ("setup_s", "s"),
    ("publish_s", "s"),
    ("request_cpu_mean_ms", "ms"),
    ("request_cpu_p50_ms", "ms"),
    ("request_cpu_p95_ms", "ms"),
    ("server_rss_mb", "MB"),
]
#: Printed in the table only: wall time, which the host's load moves.
WALL = [
    ("wall_setup_s", "s"),
    ("wall_publish_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("error_rate", "ratio"),
]
PER_LAYER = [
    ("protocol.decode_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("protocol.reply_bytes", "count"),
    ("remote.admit_ms", "ms"),
    ("remote.charge_calls", "count"),
    ("client.decode_ms", "ms"),
    ("client.unattributed_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("prf.evaluate_self_ms", "ms"),
    ("prf.users_keyed", "count"),
    ("kernels.threshold_ms", "ms"),
    ("kernels.points", "count"),
    ("collector.aligned_columns_ms", "ms"),
    ("combine.weight_histogram_ms", "ms"),
    ("sketch.sketch_many_s", "s"),
    ("serialization.save_store_s", "s"),
    ("serialization.load_store_s", "s"),
    ("engine.warmup_s", "s"),
    ("sharded.scatter_ms", "ms"),
    ("sharded.straggler_ms", "ms"),
    ("sharded.shard_execute_ms", "ms"),
    ("sharded.merge_ms", "ms"),
    ("sharded.partial_bytes", "count"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
]


class BenchError(RuntimeError):
    """A run that cannot produce trustworthy numbers."""


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


def _overtime(_signum, _frame):
    raise BenchError(f"run exceeded {TIME_LIMIT}s")


# ----------------------------------------------------------------------
# Build and provenance
# ----------------------------------------------------------------------
def build(root: str, work: str) -> str:
    """Fresh copy of ``src/repro`` with a force-built C kernel; returns
    the directory to put on ``sys.path``."""
    lib = os.path.join(work, "py")
    shutil.copytree(
        os.path.join(root, "src", "repro"),
        os.path.join(lib, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
    )
    result = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--force",
         "--build-lib", lib, "--build-temp", os.path.join(work, "tmp")],
        cwd=root, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise BenchError(f"building the C kernel failed:\n{result.stderr[-2000:]}")
    return lib


def provenance(root: str) -> dict:
    """git sha + dirty flag when the checkout is a repository, and a
    digest of ``src/`` either way (the benchmarked code, byte for byte)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".so", ".pyc")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    sha = dirty = None
    if os.path.isdir(os.path.join(root, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "setup.py"], cwd=root, capture_output=True, text=True
        )
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count()}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """``serve.py`` in its own session, so teardown can reach every
    process it forked (shard workers) by process group."""

    def __init__(self, work: str, lib: str, store: str, workload, releases: int, key: bytes, tokens, trace: bool) -> None:
        from workloads import epsilon_for

        self.dir = tempfile.mkdtemp(prefix="server-", dir=work)
        self.ready_file = os.path.join(self.dir, "ready.json")
        self.report_dir = os.path.join(self.dir, "report")
        os.makedirs(self.report_dir)
        command = [
            sys.executable, os.path.join(HERE, "serve.py"),
            "--store", store, "--key-hex", key.hex(),
            "--epsilon", repr(epsilon_for(releases)),
            "--rate-limit", repr(RATE_LIMIT),
            "--ready-file", self.ready_file, "--report-dir", self.report_dir,
            "--trace", "1" if trace else "0",
        ]
        if workload.shards:
            command += ["--shards", str(workload.shards), "--shard-dir", os.path.join(self.dir, "shards")]
        for analyst, secret in tokens.items():
            command += ["--token", f"{analyst}={secret}"]
        env = dict(os.environ, PYTHONPATH=lib, REPRO_KERNEL="c")
        self.log = open(os.path.join(self.dir, "server.log"), "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            command, env=env, stdout=self.log, stderr=subprocess.STDOUT, start_new_session=True
        )

    def wait_ready(self) -> dict:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            if os.path.exists(self.ready_file):
                with open(self.ready_file, encoding="utf-8") as handle:
                    return json.load(handle)
            if self.process.poll() is not None:
                raise BenchError(f"server exited with code {self.process.returncode}:\n{self.tail()}")
            time.sleep(0.005)
        raise BenchError(f"server not ready within {SERVER_START_TIMEOUT}s:\n{self.tail()}")

    def tail(self) -> str:
        self.log.flush()
        self.log.seek(0)
        return self.log.read()[-3000:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole group if it
        lingers; raises if any process of the group survives."""
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.log.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        raise BenchError(f"processes of server group {pgid} survived teardown")

    def reports(self) -> list:
        from tracing import load_dir

        return load_dir(self.report_dir)


# ----------------------------------------------------------------------
# Analysts
# ----------------------------------------------------------------------
class Replies:
    """Stashes each thread's last raw reply line, so the parity gate can
    compare bytes without re-encoding parsed replies in the timed loop."""

    def __init__(self) -> None:
        from repro.server import remote

        self.local = threading.local()
        original = remote.parse_reply

        def parse_reply(payload):
            self.local.raw = payload
            return original(payload)

        remote.parse_reply = parse_reply

    def take(self):
        raw, self.local.raw = getattr(self.local, "raw", None), None
        return raw


def drive(client, sequence, start, seconds, replies, serving, tracer=None) -> dict:
    """Closed loop of one analyst from position ``start`` of the
    sequence: the next request goes out only after the previous reply.

    Each record holds the wall round trip and the request's CPU time:
    the client thread's around ``execute`` plus every serving thread's
    between the previous snapshot and the one taken after this reply
    (``serving`` is a ``cputime.GroupClock``).  The client's long-lived
    objects are frozen out of the garbage collector first, so parsing
    large replies does not trigger full collections over them.
    """
    from cputime import GroupClock

    from repro.protocol import dumps_request

    records = []
    gc.collect()
    gc.freeze()
    try:
        before = serving.snapshot()
        t_start = clock()
        t_end = t_start + seconds
        position = start
        while clock() < t_end:
            request = sequence[position % len(sequence)]
            c0 = time.thread_time()
            t0 = clock()
            try:
                client.execute(request)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as failed, reported
                error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            c1 = time.thread_time()
            after = serving.snapshot()
            entry = {
                "position": position, "t0": t0, "t1": t1, "raw": replies.take(), "error": error,
                "cpu": (c1 - c0) + GroupClock.delta(before, after),
            }
            before = after
            if tracer is not None:
                last = tracer.last()
                entry["decode"] = last[4] - last[3] if last and last[2] == "client.decode" and last[3] >= t0 else 0.0
                entry["line"] = dumps_request(request)
            records.append(entry)
            position += 1
    finally:
        gc.unfreeze()
    t_stop = records[-1]["t1"] if records else clock()
    checked = [(sequence[r["position"] % len(sequence)], r["raw"], r["error"]) for r in records]
    return {
        "records": records, "window": (t_start, t_stop), "seconds": t_stop - t_start,
        "next": position, "exhausted": position > len(sequence), "checked": checked,
    }


def merge(windows) -> dict:
    """Timed windows taken as one."""
    return {
        "records": [r for w in windows for r in w["records"]],
        "window": (windows[0]["window"][0], windows[-1]["window"][1]),
        "seconds": sum(w["seconds"] for w in windows),
        "exhausted": any(w["exhausted"] for w in windows),
    }


def warm_up(clients, requests, replies) -> list:
    """Every analyst sends every warm-up request once, one analyst after
    the other: the first fills the cache, the rest pay their budget."""
    results = []
    for client in clients:
        for request in requests:
            try:
                client.execute(request)
                error = None
            except Exception as exc:  # noqa: BLE001 - fails the parity gate
                error = f"{type(exc).__name__}: {exc}"
            results.append((request, replies.take(), error))
    return results


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of sorted data."""
    position = (len(sorted_values) - 1) * q
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def set_up(work, lib, workload, inputs, stack, replies, traced: bool) -> tuple:
    """One set-up, profiles in memory -> first timed request: publish,
    save, start the server, connect the analysts, warm up.  Returns
    ``(server, clients, timings, checked replies)``; the timings hold
    both CPU seconds (all processes) and wall seconds."""
    import multiprocessing

    from cputime import own_seconds, process_seconds

    from repro.server import RemoteQueryEngine, publish_database, save_store

    store_path = os.path.join(tempfile.mkdtemp(prefix="store-", dir=work), "store.npz")
    cpu0 = own_seconds()
    t0 = clock()
    store = publish_database(
        inputs.database, stack.sketcher, workload.subsets,
        workers=PUBLISH_WORKERS, seed=stack.coin_seed,
    )
    t_save = clock()
    save_store(store, store_path, format="columnar", prf=stack.prf)
    t_published = clock()
    del store
    if multiprocessing.active_children():  # also reaps them, so own_seconds counts them
        raise BenchError("collection pool workers survived publish_database")
    cpu_published = own_seconds()
    server = Server(work, lib, store_path, workload, stack.releases, stack.key, stack.tokens, traced)
    clients = []
    try:
        ready = server.wait_ready()
        if ready["kernel"] != "c":
            raise BenchError(f"server runs the {ready['kernel']!r} kernel tier, not 'c'")
        for token in stack.tokens.values():
            clients.append(RemoteQueryEngine(ready["host"], ready["port"], token, timeout=120.0))
        t_warm = clock()
        checked = warm_up(clients, inputs.warmup, replies)
        t_ready = clock()
        cpu_ready = own_seconds() + process_seconds(server.process.pid)
    except BaseException:
        tear_down(server, clients)
        raise
    timings = {
        "setup_s": cpu_ready - cpu0, "publish_s": cpu_published - cpu0,
        "wall_setup_s": t_ready - t0, "wall_publish_s": t_published - t0,
        "save_s": t_published - t_save, "warmup_s": t_ready - t_warm,
        "publish_span": (t0, t_save), "store": store_path,
    }
    return server, clients, timings, checked


def tear_down(server, clients) -> None:
    for client in clients:
        client.close()
    server.stop()


class Stack:
    """The program's pieces and credentials, all derived from the seed."""

    def __init__(self, seed: int, inputs) -> None:
        import numpy as np

        from repro.core import CounterPRF, PrivacyParams, SketchEstimator, Sketcher

        import workloads

        self.key = workloads.global_key(seed)
        self.coin_seed = workloads.coin_seed(seed)
        self.prf = CounterPRF(p=workloads.P, global_key=self.key)
        self.params = PrivacyParams(p=workloads.P)
        self.estimator = SketchEstimator(self.params, self.prf)
        self.sketcher = Sketcher(self.params, self.prf, rng=np.random.default_rng([seed, 3]))
        self.tokens = {
            f"analyst-{i}": hashlib.sha256(f"{seed}-{i}".encode()).hexdigest() for i in range(ANALYSTS)
        }
        # The perimeter charges every subset a request names (exact-cover
        # targets included): the budget covers exactly those, once each.
        self.releases = len(
            {s for r in set(inputs.warmup) | set(inputs.sequence) for s in r.subsets_released()}
        )


def parity_gate(store_path: str, stack: Stack, workload, checked) -> list:
    """Per reply: whether it arrived and equals ``dumps_response`` of a
    single-store ``QueryEngine`` over the same store, byte for byte."""
    from repro.protocol import MarginalRequest, dumps_request, dumps_response
    from repro.server import QueryEngine, load_store

    store, _ = load_store(store_path, expected_prf=stack.prf)
    reference = QueryEngine(None, store, stack.estimator)
    for subset in workload.subsets:  # one block call per subset caches every cell
        reference.execute(MarginalRequest.build(subset))
    expected = {}
    ok = []
    for request, raw, error in checked:
        if error is not None:
            ok.append(False)
            continue
        line = dumps_request(request)
        if line not in expected:
            expected[line] = dumps_response(reference.execute(request))
        ok.append(raw is not None and raw.rstrip("\n") == expected[line])
    return ok


def run(args, root: str, work: str) -> int:
    lib = build(root, work)
    sys.path.insert(0, lib)
    os.environ["REPRO_KERNEL"] = "c"  # an unbuilt extension is an ImportError, never a fallback
    os.environ["TMPDIR"] = work  # temporary files of every process stay in this run's directory
    tempfile.tempdir = None
    import repro
    from repro.core import CounterPRF, kernels

    import tracing
    import workloads
    from cputime import GroupClock, group_pids

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(lib)):
        raise BenchError(f"imported repro from {repro.__file__}, not the fresh build")
    if kernels.active() != "c":
        raise BenchError("the compiled kernel tier is not active")

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    stack = Stack(args.seed, inputs)
    replies = Replies()
    trace_dir = os.path.join(work, "client-trace")
    os.makedirs(trace_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("client", trace_dir)
        tracing.install_collect(tracer)

    # The timed window is split over the set-ups, each set-up's server
    # driven right after it, so one run samples the host at several
    # times; the sequence goes on where the previous window stopped.  A
    # traced run drives untraced servers first, for the tracing overhead
    # (so it needs two set-ups or more), and reports the last, traced one.
    count = max(SETUPS, 2) if args.trace else SETUPS
    setups, checked, counted, windows = [], [], [], []
    position = 0
    for index in range(count):
        last = index == count - 1
        server, clients, timings, warm = set_up(
            work, lib, workload, inputs, stack, replies, traced=bool(args.trace) and last
        )
        if last:
            inputs.database = None  # profiles are only needed to publish
        setups.append(timings)
        checked += warm
        counted += [False] * len(warm)
        try:
            serving = GroupClock(group_pids(server.process.pid))
            if tracer is not None and last:
                tracing.install_client(tracer)
            window = drive(
                clients[0], inputs.sequence, position, args.seconds / count, replies, serving,
                tracer if last else None,
            )
        finally:
            tear_down(server, clients)
        position = window["next"]
        windows.append(window)
        checked += window["checked"]
        counted += [last or not args.trace] * len(window["checked"])
        if not last:
            shutil.rmtree(os.path.dirname(timings["store"]))
    reports = server.reports()
    ok = parity_gate(setups[-1]["store"], stack, workload, checked)
    mismatched = sum(1 for (_, _, error), good in zip(checked, ok) if error is None and not good)

    if args.trace:
        timed, baseline = windows[-1], merge(windows[:-1])
    else:
        timed, baseline = merge(windows), None
    records = timed["records"]
    failures = [r for r in records if r["error"] is not None]
    latencies = sorted((r["t1"] - r["t0"]) * 1e3 for r in records if r["error"] is None)
    cpu = sorted(r["cpu"] * 1e3 for r in records if r["error"] is None)
    whole = records[:max(len(records) // inputs.period, 1) * inputs.period]
    attempted = len(records)
    # Timed requests that failed, were refused or mismatched; a bad
    # warm-up or untraced reply fails the run without counting here.
    failed = sum(1 for good, timed_reply in zip(ok, counted) if timed_reply and not good)
    untimed_failed = sum(1 for good, timed_reply in zip(ok, counted) if not timed_reply and not good)
    tail = len(cpu) - math.ceil(0.95 * len(cpu))
    e2e = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
        "publish_s": (statistics.median(s["publish_s"] for s in setups), len(setups)),
        "request_cpu_mean_ms": (statistics.fmean(r["cpu"] * 1e3 for r in whole) if whole else 0.0, len(whole)),
        "request_cpu_p50_ms": (percentile(cpu, 0.5) if cpu else 0.0, len(cpu)),
        "request_cpu_p95_ms": (percentile(cpu, 0.95) if cpu else 0.0, len(cpu)),
        "server_rss_mb": (sum(r.get("peak_rss_kb", 0) for r in reports) / 1024.0, len(reports)),
        "wall_setup_s": (statistics.median(s["wall_setup_s"] for s in setups), len(setups)),
        "wall_publish_s": (statistics.median(s["wall_publish_s"] for s in setups), len(setups)),
        "throughput_rps": (len(latencies) / timed["seconds"], len(latencies)),
        "latency_p50_ms": (percentile(latencies, 0.5) if latencies else 0.0, len(latencies)),
        "latency_p95_ms": (percentile(latencies, 0.95) if latencies else 0.0, len(latencies)),
        "error_rate": (failed / attempted if attempted else 1.0, attempted),
    }
    info = dict(
        provenance(root),
        workload=workload.name, seed=args.seed, num_users=workloads.NUM_USERS,
        kernel=kernels.active(), prf=CounterPRF.algorithm, seconds=args.seconds, setups=len(setups),
        timed_requests=attempted, p95_tail_samples=tail, mismatched=mismatched, untimed_failed=untimed_failed,
        setup_samples=[round(s["setup_s"], 3) for s in setups],
        serving_processes=len(reports), sequence_exhausted=timed["exhausted"], traced=bool(args.trace),
    )
    for failure in failures[:3]:
        print(f"failed request: {failure['error']}", file=sys.stderr)

    if args.trace:
        layers = per_layer(reports, tracing.load_dir(trace_dir), setups, timed, baseline, e2e)
        info["untraced_throughput_rps"] = e2e["throughput_rps"][0] / layers["trace.throughput_ratio"][0]
        report(info, e2e, END_TO_END + WALL, "end-to-end (traced server: not for claims)")
        report(info, layers, PER_LAYER, "per-layer")
        chosen, units = {name: layers[name] for name, _ in PER_LAYER}, PER_LAYER
    else:
        report(info, e2e, END_TO_END + WALL, "end-to-end (CPU time; wall time below it is not reported)")
        chosen, units = {name: e2e[name] for name, _ in END_TO_END}, END_TO_END

    correct = failed == 0 and untimed_failed == 0 and attempted > 0 and info["kernel"] == "c"
    print("provenance " + json.dumps(info, sort_keys=True))
    unit_of = dict(units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, (value, _) in chosen.items()},
    }))
    return 0 if correct else 1


def per_layer(reports, client_trace, setups, timed, baseline, e2e) -> dict:
    """The traced server's per-layer metrics plus the set-up layers and
    the tracing overhead; name -> (value, samples)."""
    import tracing

    client_records = [
        {"line": r["line"], "t0": r["t0"], "t1": r["t1"], "decode": r["decode"]}
        for r in timed["records"] if r["error"] is None
    ]
    layers = tracing.analyse(reports + client_trace, client_records, timed["window"])
    collect = [s for p in client_trace if p["role"] == "collect" for s in p["spans"]]
    per_setup = [
        sum(s[4] - s[3] for s in collect if lo <= s[3] <= hi) for lo, hi in (x["publish_span"] for x in setups)
    ]
    layers["sketch.sketch_many_s"] = (statistics.median(per_setup), len(collect))
    layers["serialization.save_store_s"] = (statistics.median(s["save_s"] for s in setups), len(setups))
    t_lo = timed["window"][0]
    loads = [s[4] - s[3] for p in reports for s in p["spans"] if s[2] == "serialization.load_store" and s[3] < t_lo]
    layers["serialization.load_store_s"] = (sum(loads), len(loads))
    layers["engine.warmup_s"] = (statistics.median(s["warmup_s"] for s in setups), len(setups))
    base = [r for r in baseline["records"] if r["error"] is None]
    base_rps = len(base) / baseline["seconds"]
    layers["trace.throughput_ratio"] = (e2e["throughput_rps"][0] / base_rps, len(base))
    return layers


def report(info: dict, metrics: dict, units, title: str) -> None:
    print(f"[{info['workload']}] {title}: M={info['num_users']} seed={info['seed']} "
          f"kernel={info['kernel']} prf={info['prf']} nproc={info['nproc']} "
          f"git={info['git_sha'] or 'n/a'}{'+dirty' if info['git_dirty'] else ''} src={info['src_sha256']}")
    print(f"  {'metric':32} {'value':>14} {'unit':>7} {'samples':>8}")
    for name, unit in units:
        value, samples = metrics[name]
        print(f"  {name:32} {value:14.6g} {unit:>7} {samples:8d}")
    if info["p95_tail_samples"] < 10:
        print(f"  note: request_cpu_p95_ms rests on {info['p95_tail_samples']} samples beyond it (< 10)")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "setup.py")) and os.path.isdir(os.path.join(root, "src", "repro"))):
        print("error: run from the repository root (setup.py and src/repro not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(TIME_LIMIT)
    # Forked children (the collection pool) keep the default SIGTERM:
    # the pool's terminate() relies on it.
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    build_root = os.path.join(root, ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=build_root)
    try:
        return run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
