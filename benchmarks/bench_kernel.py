"""E27 — compiled kernel tier: cold-path speedup + concurrent serving.

PR 5 moved the CounterPRF hot loop from per-point hashing to NumPy
counter-mode arithmetic; this PR adds the final tier — a C extension
(``repro.core.kernels._ckernel``) that fuses Philox4x64-10 expansion,
threshold compare and bit packing into single GIL-releasing passes — and
puts a thread pool behind ``RemoteServer`` so concurrent queries
actually overlap on it.  Two floors, both statements about the software:

* **cold path** — one single-threaded width-8 marginal
  (``evaluate_block`` at M users x 256 values) through the compiled
  tier vs the NumPy tier of the *same* ``CounterPRF``, asserting >=3x
  at M=50k (``--quick`` relaxes to 2x at M=8k, where fixed dispatch
  overhead weighs more).  Each arm is a whole tier: ``hashlib``
  subkeys + NumPy Philox against C BLAKE2b subkeys + fused C Philox.
  The two blocks are asserted bit-identical at benchmark scale before
  any timing is trusted.
* **concurrent serving** — 16 clients hammering one ``RemoteServer``
  with cache-cold ``counts_block`` requests, thread-pool dispatch vs
  the inline (``pool_size=0``) baseline, asserting >=2x throughput.
  This floor needs real parallel hardware: on hosts with <4 usable
  cores it is reported but not enforced (the E21 convention — the
  bitwise response identity across both arms is still asserted).

Results land three places: the usual text table, the per-run
``benchmarks/results/BENCH_kernel.json`` (written *before* the floors
are asserted, so a failing run still ships its numbers), and one record
appended to the repo-root ``BENCH_kernel.json`` trajectory so speedups
are comparable across commits.

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.core import CounterPRF, PrivacyParams, SketchEstimator, Sketcher, kernels
from repro.data import bernoulli_panel
from repro.protocol import CountsBlockRequest, dumps_response
from repro.server import QueryEngine, publish_database
from repro.server.remote import RemoteQueryEngine, RemoteServer, serve_in_thread

from _harness import RESULTS_DIR, GLOBAL_KEY, write_table

SEED = 27
WIDTH = 8  # 2**8 = 256 candidate values: the byte-attribute histogram
SERVE_WIDTH = 12  # serving subset: 4096 candidate values, enough for
                  # every request across all clients to stay cache-cold
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_kernel.json")
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_kernel.json"
)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Part 1: single-threaded cold evaluate_block, compiled vs NumPy tier
# ----------------------------------------------------------------------
def _bench_cold_block(num_users: int) -> dict:
    counter = CounterPRF(p=0.3, global_key=GLOBAL_KEY)
    subset = tuple(range(WIDTH))
    values = [
        tuple(int(bit) for bit in np.binary_repr(v, WIDTH)) for v in range(1 << WIDTH)
    ]
    user_ids = [f"user-{i:07d}" for i in range(num_users)]
    keys = np.random.default_rng(SEED).integers(0, 1 << 10, size=num_users).tolist()

    kernels.select("numpy")
    start = time.perf_counter()
    numpy_block = counter.evaluate_block(user_ids, subset, values, keys)
    numpy_s = time.perf_counter() - start

    kernels.select("c")
    start = time.perf_counter()
    c_block = counter.evaluate_block(user_ids, subset, values, keys)
    c_s = time.perf_counter() - start

    assert np.array_equal(numpy_block, c_block), (
        "compiled and NumPy tiers disagree on evaluate_block output"
    )
    num_points = num_users * len(values)
    return {
        "num_users": num_users,
        "block_values": len(values),
        "numpy_s": numpy_s,
        "c_s": c_s,
        "numpy_ns_per_point": numpy_s / num_points * 1e9,
        "c_ns_per_point": c_s / num_points * 1e9,
        "speedup": numpy_s / c_s,
    }


# ----------------------------------------------------------------------
# Part 2: concurrent serving, thread-pool dispatch vs inline baseline
# ----------------------------------------------------------------------
def _make_engine(num_users: int) -> QueryEngine:
    params = PrivacyParams(p=0.3)
    prf = CounterPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, SERVE_WIDTH, density=0.5,
                               rng=np.random.default_rng(SEED))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(SEED + 1))
    store = publish_database(
        database, sketcher, [tuple(range(SERVE_WIDTH))], workers=1, seed=SEED
    )
    # A fresh engine per serving arm: both arms start cache-cold, so the
    # comparison isolates dispatch, not cache warmth.
    return QueryEngine(database.schema, store, SketchEstimator(params, prf))


def _serving_requests(concurrency: int, per_client: int, chunk: int = 16):
    """Distinct cache-cold counts_block requests, one list per client.

    Every request names a disjoint run of candidate values of the one
    published subset, so each one reaches the PRF (no warm-cache
    short-circuit) and the kernel tier does real, GIL-released work.
    """
    subset = tuple(range(SERVE_WIDTH))
    total = concurrency * per_client
    assert total * chunk <= 1 << SERVE_WIDTH, "value space exhausted; shrink the run"
    per_client_lists = []
    for client in range(concurrency):
        requests = []
        for r in range(per_client):
            base = (client * per_client + r) * chunk
            values = [
                tuple(int(bit) for bit in np.binary_repr(v, SERVE_WIDTH))
                for v in range(base, base + chunk)
            ]
            requests.append(CountsBlockRequest.build(subset, values))
        per_client_lists.append(requests)
    return per_client_lists


def _serve_arm(engine: QueryEngine, per_client_lists, pool_size) -> tuple:
    """Run one serving arm; returns (seconds, sorted response payloads)."""
    concurrency = len(per_client_lists)
    tokens = {f"analyst-{i}": f"token-{i}" for i in range(concurrency)}
    server = RemoteServer(engine, tokens, pool_size=pool_size)
    results: list = [None] * concurrency
    with serve_in_thread(server) as (host, port):
        clients = [
            RemoteQueryEngine(host, port, f"token-{i}") for i in range(concurrency)
        ]
        try:
            barrier = threading.Barrier(concurrency + 1)

            def worker(index: int) -> None:
                barrier.wait()
                results[index] = [
                    dumps_response(clients[index].execute(request))
                    for request in per_client_lists[index]
                ]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(concurrency)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        finally:
            for client in clients:
                client.close()
    return elapsed, results


def _bench_serving(num_users: int, concurrency: int, per_client: int) -> dict:
    kernels.select("c")
    inline_s, inline_results = _serve_arm(
        _make_engine(num_users), _serving_requests(concurrency, per_client), 0
    )
    pooled_s, pooled_results = _serve_arm(
        _make_engine(num_users), _serving_requests(concurrency, per_client), None
    )
    assert pooled_results == inline_results, (
        "thread-pool dispatch changed response bytes vs inline dispatch"
    )
    total = concurrency * per_client
    return {
        "num_users": num_users,
        "concurrency": concurrency,
        "requests": total,
        "inline_s": inline_s,
        "pooled_s": pooled_s,
        "inline_rps": total / inline_s,
        "pooled_rps": total / pooled_s,
        "speedup": inline_s / pooled_s,
    }


def run(
    num_users: int = 50_000,
    min_block: float = 3.0,
    serve_users: int = 4_000,
    concurrency: int = 16,
    per_client: int = 12,
    min_serve: float = 2.0,
) -> dict:
    if not kernels.available():
        raise RuntimeError(
            "E27 measures the compiled kernel tier; build it first with "
            "'python setup.py build_ext --inplace'"
        )
    tier_before = kernels.active()
    try:
        cold = _bench_cold_block(num_users)
        serving = _bench_serving(serve_users, concurrency, per_client)
    finally:
        kernels.select(tier_before)

    cores = _usable_cores()
    serve_enforced = cores >= 4
    results = {
        "experiment": "E27",
        "cold_block": {**cold, "floor": min_block},
        "serving": {
            **serving,
            "floor": min_serve,
            "floor_enforced": serve_enforced,
            "usable_cores": cores,
        },
    }
    write_table(
        "E27",
        f"Compiled kernel tier: M={num_users} cold path, "
        f"{concurrency}-way serving at M={serve_users}",
        ["path", "baseline s", "compiled s", "speedup", "floor"],
        [
            (
                f"cold evaluate_block ({cold['block_values']} values, numpy tier vs c)",
                f"{cold['numpy_s']:.3f}",
                f"{cold['c_s']:.3f}",
                f"{cold['speedup']:.1f}x",
                f"{min_block}x",
            ),
            (
                f"serving x{concurrency} (inline vs pool, {serving['requests']} reqs)",
                f"{serving['inline_s']:.3f}",
                f"{serving['pooled_s']:.3f}",
                f"{serving['speedup']:.1f}x",
                f"{min_serve}x" if serve_enforced else f"({min_serve}x, not enforced)",
            ),
        ],
        notes=(
            "Cold path is single-threaded: same CounterPRF, same inputs, only\n"
            "the kernel tier differs, and the outputs are asserted bit-identical\n"
            "first.  Serving compares thread-pool dispatch against the inline\n"
            "(pool_size=0) baseline on cache-cold counts_block requests; the\n"
            "response bytes are asserted identical across arms.  The serving\n"
            f"floor is enforced only on hosts with >=4 usable cores (this host:\n"
            f"{cores}) — wall-clock parallelism on fewer cores measures the\n"
            "hardware, not the dispatch path."
        ),
    )

    # Per-run JSON for the CI artifact, then the repo-root trajectory —
    # both land before any floor can fail the run.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"\nwrote {JSON_PATH}")
    trajectory = []
    if os.path.exists(TRAJECTORY_PATH):
        with open(TRAJECTORY_PATH, "r", encoding="utf-8") as handle:
            trajectory = json.load(handle)
    trajectory.append(
        {
            "num_users": num_users,
            "cold_block_speedup": round(cold["speedup"], 3),
            "serving_speedup": round(serving["speedup"], 3),
            "usable_cores": cores,
        }
    )
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"appended to {TRAJECTORY_PATH} ({len(trajectory)} records)")

    assert cold["speedup"] >= min_block, (
        f"compiled cold evaluate_block is only {cold['speedup']:.1f}x over the "
        f"NumPy tier (required {min_block}x)"
    )
    if serve_enforced:
        assert serving["speedup"] >= min_serve, (
            f"pooled serving is only {serving['speedup']:.1f}x over inline "
            f"dispatch (required {min_serve}x)"
        )
    else:
        print(
            f"\nNOTE: only {cores} usable core(s) — serving floor of "
            f"{min_serve}x reported ({serving['speedup']:.1f}x) but not enforced."
        )
    return results


def test_e27_kernel_tier():
    import pytest

    if not kernels.available():
        pytest.skip("compiled kernel extension not built")
    # CI-sized run: bit identity and cross-arm response identity are
    # asserted exactly; the cold floor is relaxed to 2x (fixed dispatch
    # overhead weighs more at small M) and the serving floor enforces
    # itself only on >=4-core hosts.
    run(num_users=8_000, min_block=2.0, serve_users=1_500,
        concurrency=8, per_client=6, min_serve=1.0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: M=8k cold path / 8-way serving with relaxed floors "
        "instead of M=50k / 16-way with 3x/2x",
    )
    args = parser.parse_args()
    if args.quick:
        run(num_users=8_000, min_block=2.0, serve_users=1_500,
            concurrency=8, per_client=6, min_serve=1.0)
    else:
        run(num_users=50_000, min_block=3.0, serve_users=4_000,
            concurrency=16, per_client=12, min_serve=2.0)
