"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of ``--seed``: the profile panel, the
PRF key, the collection coins, the request pool and the order in which
the analyst draws from it.  Nothing is timed here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

P = 0.3
ATTRIBUTES = 8

#: The warm-single / sharded-scan publishing policy.
WARM_SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,), (4, 5, 6, 7)]
#: Three 8-bit subsets (rotations of all attributes); every cell of each
#: is a distinct PRF input, so cold-explore has 3 x 256 cells to visit.
COLD_SUBSETS = [tuple((start + i) % ATTRIBUTES for i in range(ATTRIBUTES)) for start in (0, 3, 5)]

#: Users per workload (M).
NUM_USERS = 100_000
#: Pool variants per query family on the warm workloads.
VARIANTS = 4
#: Requests generated per run; the analyst cycles through them.
SEQUENCE_LENGTH = 100_000
#: Every this-many-th request is a ``bit_matrix`` on sharded-scan: the
#: median is a small request and the p95 a ``bit_matrix`` (12.5% of
#: requests), both well inside their mode.
BIT_MATRIX_EVERY = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subsets: List[Tuple[int, ...]]
    shards: int  # 0 = single store
    warm: bool  # False: every request asks new cells, and there is no warm-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "warm-single",
            "every lookup hits the cache: protocol, perimeter, gather and reduction do the work, the PRF none",
            WARM_SUBSETS, 0, True,
        ),
        Workload(
            "cold-explore",
            "every lookup misses: subkey derivation, the Philox kernel and cache fill do the work",
            COLD_SUBSETS, 0, False,
        ),
        Workload(
            "sharded-scan",
            "2-shard scatter, merge and O(M) JSON partials and replies behind the TCP perimeter",
            WARM_SUBSETS, 2, True,
        ),
    )
}


def global_key(seed: int) -> bytes:
    return hashlib.blake2b(f"perfbench-key-{seed}".encode(), digest_size=32).digest()


def coin_seed(seed: int) -> int:
    return int.from_bytes(hashlib.blake2b(f"perfbench-coins-{seed}".encode(), digest_size=8).digest(), "little")


def epsilon_for(num_subsets: int, p: float = P) -> float:
    """A per-analyst budget of exactly ``num_subsets`` sketch releases."""
    per_release = 4.0 * math.log((1.0 - p) / p)
    return math.expm1(per_release * (num_subsets + 0.5))


def _bits(rng: np.random.Generator, width: int) -> Tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=width))


def _distinct_values(rng, width: int, count: int) -> List[Tuple[int, ...]]:
    picks = rng.choice(1 << width, size=count, replace=False)
    return [tuple((int(v) >> (width - 1 - i)) & 1 for i in range(width)) for v in picks]


def warm_pool(rng: np.random.Generator) -> List[list]:
    """``VARIANTS`` requests per small-reply family, one inner list each."""
    from repro.protocol import (
        AnyOfRequest,
        CountsBlockRequest,
        EstimateManyRequest,
        EvaluatePlanRequest,
        ExactlyLRequest,
        FractionRequest,
        MarginalRequest,
    )

    multi = [(0, 1), (1, 2, 3), (4, 5, 6, 7)]
    # Exact-cover targets: each is only answerable as a disjoint union of
    # published subsets (Appendix F weight-histogram path).
    covers = [(0, 1, 2, 3), (0, 1, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7), (0, 1, 2)]
    families = {
        "counts_block": lambda i: CountsBlockRequest.build(
            multi[i % 3], _distinct_values(rng, len(multi[i % 3]), 2 + i % 3)
        ),
        "counts_block_cover": lambda i: CountsBlockRequest.build(
            covers[i % 4], [_bits(rng, len(covers[i % 4])) for _ in range(1 + i % 2)]
        ),
        "estimate_many": lambda i: EstimateManyRequest.build(
            multi[i % 3], _distinct_values(rng, len(multi[i % 3]), 2)
        ),
        "marginal": lambda i: MarginalRequest.build(multi[i % 3]),
        "fraction": lambda i: FractionRequest.build(
            WARM_SUBSETS[i % 7], _bits(rng, len(WARM_SUBSETS[i % 7]))
        ),
        "any_of": lambda i: AnyOfRequest.build(
            [(s, _bits(rng, len(s))) for s in (multi[i % 3], ((2,), (3,), (0,), (1,))[i % 4])]
        ),
        "exactly_l": lambda i: ExactlyLRequest.build((0, 1, 2, 3), 1 + i % 3),
        "evaluate_plan": lambda i: EvaluatePlanRequest.build(
            [
                (multi[i % 3], _bits(rng, len(multi[i % 3])), 2.0),
                (((0,), (1,), (2,), (3,))[i % 4], (1,), -1.0),
                ((4, 5, 6, 7), _bits(rng, 4), 0.5),
            ],
            description=f"plan-{i}",
        ),
    }
    return [[build(i) for i in range(VARIANTS)] for build in families.values()]


def bit_matrix_pool() -> list:
    from repro.protocol import BitMatrixRequest

    return [BitMatrixRequest.build((0, 1, 2, 3), target) for target in (1, 0)]


def warm_sequence(rng, pool: List[list], extra: Sequence = ()) -> list:
    """Rounds of the whole pool, each round in a seeded order, so every
    pool request has the same share of any window a few rounds long and
    the median does not hang on a random draw; with ``extra``, every
    ``BIT_MATRIX_EVERY``-th request is one of it, in turn."""
    flat = [request for family in pool for request in family]
    sequence = []
    while len(sequence) < SEQUENCE_LENGTH:
        for index in rng.permutation(len(flat)).tolist():
            if extra and len(sequence) % BIT_MATRIX_EVERY == BIT_MATRIX_EVERY - 1:
                sequence.append(extra[len(sequence) // BIT_MATRIX_EVERY % len(extra)])
            sequence.append(flat[index])
    return sequence[:SEQUENCE_LENGTH]


def cold_sequence(rng) -> list:
    """Every 8-bit cell once, subsets rotating request by request; each
    request is a ``fraction`` (one cell) or a 2-value ``counts_block``."""
    from repro.protocol import CountsBlockRequest, FractionRequest

    width = ATTRIBUTES
    queues = [_distinct_values(rng, width, 1 << width) for _ in COLD_SUBSETS]
    sequence = []
    turn = 0
    while any(queues):
        index = turn % len(COLD_SUBSETS)
        turn += 1
        queue = queues[index]
        if not queue:
            continue
        subset = COLD_SUBSETS[index]
        if len(queue) >= 2 and rng.random() < 0.5:
            sequence.append(CountsBlockRequest.build(subset, [queue.pop(), queue.pop()]))
        else:
            sequence.append(FractionRequest.build(subset, queue.pop()))
    return sequence


@dataclass
class Inputs:
    database: object
    #: Requests every analyst sends once before timing: a marginal per
    #: published subset caches every cell in one PRF block call each,
    #: then the pool itself fills the engine's memos and pays the budget.
    warmup: list
    sequence: list  # the timed closed-loop sequence
    #: Requests after which the sequence's mix repeats: the mean CPU per
    #: request is taken over whole periods, so one ``bit_matrix`` more or
    #: less at the end of the window does not move it.
    period: int = 1


def make_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.data import bernoulli_panel
    from repro.protocol import MarginalRequest

    rng = np.random.default_rng([seed, 1])
    database = bernoulli_panel(NUM_USERS, ATTRIBUTES, density=0.5, rng=rng)
    requests_rng = np.random.default_rng([seed, 2])
    if not workload.warm:
        return Inputs(database, [], cold_sequence(requests_rng))
    pool = warm_pool(requests_rng)
    extra = bit_matrix_pool() if workload.shards else []
    warmup = [MarginalRequest.build(s) for s in workload.subsets]
    warmup += [request for family in pool for request in family]
    period = BIT_MATRIX_EVERY if extra else len(warmup) - len(workload.subsets)
    return Inputs(database, warmup, warm_sequence(requests_rng, pool, extra), period)
