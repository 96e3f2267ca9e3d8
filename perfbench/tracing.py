"""Spans around the program's public functions, recorded from outside.

The traced run wraps public functions of ``repro`` from this file (no
program code changes): each wrapper records a span ``(id, parent, name,
start, end, request id, value)`` into an in-memory list, and every
process writes its list to a JSON file when it ends.  ``analyse`` turns
the merged spans of one timed window into the per-layer metrics.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans
from the client, server and shard-worker processes share one time axis.

Request ids are not on the wire (protocol v1), so a request is followed
by object identity inside a process (decoded request -> engine call ->
response -> encoded reply) and matched to the client's round trip by
its request line and time order.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, role: str, out_dir: str) -> None:
        self.role = role
        self.out_dir = out_dir
        self.spans: List[tuple] = []  # (id, parent, name, t0, t1, rid, value)
        self.samples: List[tuple] = []  # (name, t, payload)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # object identity -> (rid, t) handoffs between layers of one request
        self.handoff: Dict[int, tuple] = {}

    def reset(self, role: str) -> None:
        """Start afresh in a forked child (inherits the parent's lists)."""
        self.role = role
        self.spans = []
        self.samples = []
        self.handoff = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value: Optional[int]) -> None:
        self._local.rid = value

    def new_rid(self) -> int:
        return next(self._ids)

    def call(self, name: str, fn, args, kwargs, rid=None, value=None):
        """Run ``fn`` inside a span; returns ``(result, span_record)``.

        ``value`` is a number to store with the span, or a callable
        computing it from the result."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
        if callable(value):
            value = value(result)
        # Tuples of atoms drop out of the garbage collector's tracking.
        record = (span_id, parent, name, t0, t1, self.rid if rid is None else rid, value)
        self.spans.append(record)
        self._local.last = record
        return result, record

    def last(self) -> Optional[list]:
        """The span this thread closed most recently."""
        return getattr(self._local, "last", None)

    def mark(self, name: str, t0: float, t1: float, rid=None, value=None) -> None:
        """A synthetic span (e.g. a wait between two layers)."""
        self.spans.append((next(self._ids), None, name, t0, t1, rid, value))

    def sample(self, name: str, payload) -> None:
        self.samples.append((name, _clock(), payload))

    def dump(self, extra: Optional[dict] = None) -> str:
        path = os.path.join(self.out_dir, f"trace-{self.role}-{os.getpid()}.json")
        payload = dict(extra or {}, role=self.role, pid=os.getpid())
        payload.update(spans=self.spans, samples=self.samples)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path


def _wrap(owner, attr: str, make):
    original = getattr(owner, attr)
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


def _wrap_method(cls, attr: str, name: str, tracer: Tracer, value=None) -> None:
    def make(original):
        def wrapper(*args, **kwargs):
            v = None if value is None else value(args, kwargs)
            return tracer.call(name, original, args, kwargs, value=v)[0]

        return wrapper

    _wrap(cls, attr, make)


def install_client(tracer: Tracer) -> None:
    """Client process: reply parsing."""
    from repro.server import remote

    _wrap_method(remote, "parse_reply", "client.decode", tracer)


def install_collect(tracer: Tracer) -> None:
    """Client process: ``sketch_many`` inside the forked collection pool."""
    from repro.core.sketch import Sketcher

    main_pid = os.getpid()

    def make_sketch_many(original):
        def wrapper(*args, **kwargs):
            result, record = tracer.call("sketch.sketch_many", original, args, kwargs)
            if os.getpid() != main_pid:
                # Forked pool workers are terminated by the pool, so each
                # call is appended to a per-worker file as it ends.
                path = os.path.join(tracer.out_dir, f"collect-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            return result

        return wrapper

    _wrap(Sketcher, "sketch_many", make_sketch_many)


def install_server(tracer: Tracer) -> None:
    """Serving processes (front server, coordinator, forked shard workers)."""
    from repro.core import combine, kernels
    from repro.core.accountant import PrivacyAccountant
    from repro.core.prf import CounterPRF
    from repro.protocol.messages import ShardPartialRequest
    from repro.server import remote, sharded
    from repro.server.collector import SketchStore
    from repro.server.engine import QueryEngine, SketchEvaluationCache
    from repro.server.sharded import ShardCoordinator, ShardWorkerEngine

    def front() -> bool:
        return tracer.role == "server"

    # -- protocol: envelope decode and response encode ------------------
    def make_decode(original):
        def wrapper(line):
            rid = tracer.new_rid()
            (request, deadline), record = tracer.call(
                "protocol.decode" if front() else "shard.decode", original, (line,), {}, rid=rid,
                value=line.strip() if front() else None,
            )
            tracer.handoff[id(request)] = (rid, record[4])
            return request, deadline

        return wrapper

    _wrap(remote, "loads_request_envelope", make_decode)

    def make_encode(original):
        def wrapper(response):
            rid = tracer.handoff.pop(id(response), (None,))[0]
            return tracer.call(
                "protocol.encode" if front() else "shard.encode", original, (response,), {}, rid=rid,
                value=lambda text: len(text) + 1,  # reply bytes incl. the newline
            )[0]

        return wrapper

    _wrap(remote, "dumps_response", make_encode)

    # -- dispatch: the engine behind the perimeter ----------------------
    def make_execute(name):
        def make(original):
            def wrapper(self, request):
                rid, decoded = tracer.handoff.pop(id(request), (None, None))
                if decoded is None:  # a nested call (e.g. a plan's terms): its parent's time
                    return original(self, request)
                start = _clock()
                tracer.mark("remote.admit" if front() else "shard.admit", decoded, start, rid=rid)
                previous, tracer.rid = tracer.rid, rid
                try:
                    response = tracer.call(name, original, (self, request), {}, rid=rid)[0]
                finally:
                    tracer.rid = previous
                tracer.handoff[id(response)] = (rid, None)
                return response

            return wrapper

        return make

    _wrap(QueryEngine, "execute", make_execute("engine.execute"))
    _wrap(ShardCoordinator, "execute", make_execute("sharded.coordinator_execute"))
    _wrap(ShardWorkerEngine, "execute", make_execute("sharded.shard_execute"))

    def make_charge(original):
        def wrapper(*args, **kwargs):
            tracer.sample("remote.charge_calls", 1)
            return original(*args, **kwargs)

        return wrapper

    _wrap(PrivacyAccountant, "charge", make_charge)

    # -- statistics: cache, PRF, kernel, gather, histogram --------------
    def make_bits(original):
        def wrapper(self, subset, values):
            result = tracer.call("cache.bits", original, (self, subset, values), {})[0]
            tracer.sample("cache.stats", (id(self), self.stats["hits"], self.stats["misses"]))
            return result

        return wrapper

    _wrap(SketchEvaluationCache, "bits", make_bits)

    users = lambda a, k: len(a[1])  # noqa: E731 - (self, user_ids, ...)
    _wrap_method(CounterPRF, "evaluate", "prf.evaluate", tracer, value=lambda a, k: 1)
    _wrap_method(CounterPRF, "evaluate_keys", "prf.evaluate", tracer, value=lambda a, k: 1)
    _wrap_method(CounterPRF, "evaluate_block", "prf.evaluate", tracer, value=users)
    _wrap_method(CounterPRF, "evaluate_grid", "prf.evaluate", tracer, value=users)
    # points = threshold compares (output bits) of one kernel pass
    _wrap_method(kernels, "threshold_keys", "kernels.threshold", tracer, value=lambda a, k: int(a[1].size))
    _wrap_method(
        kernels, "threshold_block", "kernels.threshold", tracer,
        value=lambda a, k: int(a[1].size) * int(a[0].size) * 4,
    )
    _wrap_method(kernels, "threshold_grid", "kernels.threshold", tracer, value=lambda a, k: int(a[2].size))
    _wrap_method(SketchStore, "aligned_columns", "collector.aligned_columns", tracer)
    _wrap_method(combine, "weight_histogram", "combine.weight_histogram", tracer)

    # -- sharding: fan-out, shard calls, store save/load ----------------
    build = ShardPartialRequest.build.__func__

    def build_partial(cls, *args, **kwargs):
        # (front request id, scatter id): every shard call of this partial
        # is one scatter of that request (ids of freed objects get reused).
        partial = build(cls, *args, **kwargs)
        tracer.handoff[id(partial)] = (tracer.rid, tracer.new_rid())
        return partial

    ShardPartialRequest.build = classmethod(build_partial)

    def make_shard_call(original):
        def wrapper(self, request, **kwargs):
            if request.kind != ShardPartialRequest.kind:
                return original(self, request, **kwargs)
            rid, scatter = tracer.handoff.get(id(request), (None, None))
            return tracer.call(
                "sharded.shard_call", original, (self, request), kwargs, rid=rid, value=scatter
            )[0]

        return wrapper

    _wrap(remote.RemoteQueryEngine, "execute", make_shard_call)
    _wrap_method(sharded, "load_store", "serialization.load_store", tracer)
    _wrap_method(sharded, "save_store", "serialization.save_store", tracer)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_dir(path: str) -> List[dict]:
    """Every trace file in ``path``; pool-worker lines become one pseudo-process."""
    processes = []
    collect = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if name.startswith("trace-") and name.endswith(".json"):
            with open(full, encoding="utf-8") as handle:
                processes.append(json.load(handle))
        elif name.startswith("collect-"):
            with open(full, encoding="utf-8") as handle:
                collect.extend(json.loads(line) for line in handle if line.strip())
    if collect:
        processes.append({"role": "collect", "pid": 0, "spans": collect, "samples": []})
    return processes


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span[3]
        for t0, t1 in sorted(children.get(span[0], ())):
            t0, t1 = max(t0, cursor), min(t1, span[4])
            if t1 > t0:
                covered += t1 - t0
                cursor = t1
        out[span[0]] = (span[4] - span[3]) - covered
    return out


def _median_ms(values) -> tuple:
    values = list(values)
    return (statistics.median(values) * 1e3 if values else 0.0), len(values)


def analyse(processes: List[dict], client: List[dict], window: tuple) -> Dict[str, tuple]:
    """Per-layer metrics of one timed window: name -> (value, samples).

    ``client`` holds one record per timed round trip:
    ``{"line", "t0", "t1", "decode"}`` (seconds on the shared clock).
    """
    t_lo, t_hi = window
    inside = lambda t: t_lo <= t <= t_hi  # noqa: E731
    by_role = defaultdict(list)
    samples = defaultdict(list)
    for proc in processes:
        spans = [s for s in proc["spans"] if inside(s[3])]
        selfs = self_times(proc["spans"])
        by_role[proc["role"]].extend((s, selfs[s[0]], proc["pid"]) for s in spans)
        for name, t, payload in proc["samples"]:
            samples[name].append((t, proc["pid"], payload))

    def spans_named(name, roles=("server", "shard")):
        return [(s, st) for role in roles for s, st, _ in by_role[role] if s[2] == name]

    out: Dict[str, tuple] = {}

    def durations(name, roles=("server", "shard")):
        return [s[4] - s[3] for s, _ in spans_named(name, roles)]

    out["protocol.decode_ms"] = _median_ms(durations("protocol.decode"))
    out["protocol.encode_ms"] = _median_ms(durations("protocol.encode"))
    encodes = spans_named("protocol.encode")
    out["protocol.reply_bytes"] = (sum(s[6] or 0 for s, _ in encodes), len(encodes))
    out["remote.admit_ms"] = _median_ms(durations("remote.admit"))
    charges = [t for t, _, _ in samples["remote.charge_calls"] if inside(t)]
    out["remote.charge_calls"] = (len(charges), len(charges))

    executes = spans_named("engine.execute")
    out["engine.execute_ms"] = _median_ms(s[4] - s[3] for s, _ in executes)
    out["engine.self_ms"] = _median_ms(st for _, st in executes)
    hits = misses = 0
    per_cache = defaultdict(list)
    for t, pid, (key, h, m) in samples["cache.stats"]:
        per_cache[(pid, key)].append((t, h, m))
    for series in per_cache.values():
        series.sort()
        before = [(h, m) for t, h, m in series if t < t_lo]
        during = [(h, m) for t, h, m in series if inside(t)]
        if during:
            h0, m0 = before[-1] if before else (0, 0)
            hits += during[-1][0] - h0
            misses += during[-1][1] - m0
    lookups = hits + misses
    out["engine.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, lookups)

    prf = spans_named("prf.evaluate")
    out["prf.evaluate_self_ms"] = _median_ms(st for _, st in prf)
    out["prf.users_keyed"] = (sum(s[6] or 0 for s, _ in prf), len(prf))
    kernel = spans_named("kernels.threshold")
    out["kernels.threshold_ms"] = _median_ms(s[4] - s[3] for s, _ in kernel)
    out["kernels.points"] = (sum(s[6] or 0 for s, _ in kernel), len(kernel))
    out["collector.aligned_columns_ms"] = _median_ms(durations("collector.aligned_columns"))
    out["combine.weight_histogram_ms"] = _median_ms(durations("combine.weight_histogram"))

    # Sharding: group shard calls by partial request (one scatter each).
    scatters = defaultdict(list)
    for s, _ in spans_named("sharded.shard_call", ("server",)):
        scatters[(s[5], s[6])].append(s)
    walls, stragglers = [], []
    scatter_by_rid = defaultdict(float)
    for (rid, _), calls in scatters.items():
        wall = max(c[4] for c in calls) - min(c[3] for c in calls)
        walls.append(wall)
        if len(calls) > 1:
            durs = [c[4] - c[3] for c in calls]
            stragglers.append(max(durs) - min(durs))
        scatter_by_rid[rid] += wall
    out["sharded.scatter_ms"] = _median_ms(walls)
    out["sharded.straggler_ms"] = _median_ms(stragglers)
    out["sharded.shard_execute_ms"] = _median_ms(durations("sharded.shard_execute", ("shard",)))
    coordinator = spans_named("sharded.coordinator_execute", ("server",))
    out["sharded.merge_ms"] = _median_ms(
        (s[4] - s[3]) - scatter_by_rid.get(s[5], 0.0) for s, _ in coordinator
    )
    partials = spans_named("shard.encode", ("shard",))
    out["sharded.partial_bytes"] = (sum(s[6] or 0 for s, _ in partials), len(partials))

    # Client side: parse, and the round trip no server span accounts for.
    decodes = [c["decode"] for c in client]
    out["client.decode_ms"] = _median_ms(decodes)
    server_span = _server_spans(by_role["server"])
    unattributed, uncovered = [], []
    pending = defaultdict(list)
    for entry in server_span:
        pending[entry["line"]].append(entry)
    for entries in pending.values():
        entries.sort(key=lambda e: e["t0"])
    for c in sorted(client, key=lambda c: c["t0"]):
        queue = pending.get(c["line"])
        while queue and queue[0]["t0"] < c["t0"]:
            queue.pop(0)  # a server span older than this send cannot be its reply
        if not queue:
            continue
        entry = queue.pop(0)
        rtt = c["t1"] - c["t0"]
        unattributed.append(rtt - (entry["t1"] - entry["t0"]) - c["decode"])
        uncovered.append((rtt - c["decode"] - entry["covered"]) / rtt)
    out["client.unattributed_ms"] = _median_ms(unattributed)
    out["trace.unattributed_share"] = (
        statistics.median(uncovered) if uncovered else 0.0,
        len(uncovered),
    )
    return out


def _server_spans(entries) -> List[dict]:
    """Front-server request spans: decode start -> encode end, with the
    time the layer spans (decode, admit, dispatch, encode) cover."""
    by_rid = defaultdict(dict)
    for s, _, _ in entries:
        if s[5] is not None and s[2] in (
            "protocol.decode", "remote.admit", "engine.execute",
            "sharded.coordinator_execute", "protocol.encode",
        ):
            by_rid[s[5]][s[2]] = s
    out = []
    for spans in by_rid.values():
        decode, encode = spans.get("protocol.decode"), spans.get("protocol.encode")
        if decode is None or encode is None:
            continue
        covered = sum(s[4] - s[3] for s in spans.values())
        out.append({"line": decode[6], "t0": decode[3], "t1": encode[4], "covered": covered})
    return out
