"""The benchmark's server process: ``repro serve`` assembled from its parts.

Built from the same public pieces as the ``repro serve`` CLI —
``load_store``, then ``QueryEngine`` or ``ShardedService``, then
``RemoteServer`` — so the benchmark can add what the CLI has no flag
for: tracing wrappers installed before the shard workers fork, and a
report of each serving process's peak RSS written when it exits.

Run by ``perfbench/run.py``; stops on SIGTERM like ``repro serve``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def _report(role: str, out_dir: str, tracer) -> None:
    """This process's peak RSS, plus its spans when traced."""
    report = {"role": role, "pid": os.getpid(), "spans": [], "samples": []}
    report["peak_rss_kb"] = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.dump(report)
        return
    with open(os.path.join(out_dir, f"trace-{role}-{os.getpid()}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--key-hex", required=True)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--shard-dir")
    parser.add_argument("--token", action="append", default=[], help="analyst=secret")
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--rate-limit", type=float, required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--report-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro.core import CounterPRF, PrivacyParams, SketchEstimator, kernels
    from repro.server import QueryEngine, RemoteServer, load_store, sharded
    from workloads import P

    tracer = None
    if args.trace:
        from tracing import Tracer, install_server

        tracer = Tracer("server", args.report_dir)
        install_server(tracer)

    # Shard workers are forked from this process, so this wrapper (and
    # any tracing wrappers above) runs in them; each worker reports its
    # own peak RSS and spans when its server drains on SIGTERM.
    run_shard_worker = sharded.run_shard_worker

    def reporting_worker(config: dict) -> None:
        if tracer is not None:
            tracer.reset("shard")
        try:
            run_shard_worker(config)
        finally:
            _report("shard", args.report_dir, tracer)

    sharded.run_shard_worker = reporting_worker

    prf = CounterPRF(p=P, global_key=bytes.fromhex(args.key_hex))
    if tracer is not None:
        store, _ = tracer.call("serialization.load_store", load_store, (args.store,), {"expected_prf": prf})[0]
    else:
        store, _ = load_store(args.store, expected_prf=prf)
    service = None
    if args.shards:
        service = sharded.ShardedService.from_store(store, prf, args.shards, args.shard_dir)
        service.start()
        front = service.coordinator
    else:
        front = QueryEngine(None, store, SketchEstimator(PrivacyParams(p=prf.p), prf))
    tokens = dict(item.split("=", 1) for item in args.token)
    server = RemoteServer(front, tokens, epsilon=args.epsilon, rate_limit=args.rate_limit)

    def ready(address) -> None:
        tmp = args.ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"host": address[0], "port": address[1], "kernel": kernels.active()}, handle)
        os.replace(tmp, args.ready_file)

    try:
        server.run("127.0.0.1", 0, ready_callback=ready)
    finally:
        if service is not None:
            service.close()
        _report("server", args.report_dir, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
