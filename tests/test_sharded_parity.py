"""Sharded serving parity: every query family, bit-identical.

The coordinator's contract is not "statistically equivalent" but
*byte-compatible*: for every protocol query family, the wire payload a
shard coordinator produces must equal the single-store engine's payload
byte for byte — cold cache and warm, at 1, 2 and 4 shards, under both
PRF backends.  Parity is asserted on ``dumps_response`` output (the
exact bytes a remote analyst would receive), and error surfaces must
match too: same exception type, same message, same precedence.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core import (
    BiasedPRF,
    CounterPRF,
    PrivacyParams,
    SketchEstimator,
    Sketcher,
)
from repro.core.partition import split_columns_at, user_universe
from repro.data import bernoulli_panel
from repro.protocol import (
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    PingRequest,
    ProtocolError,
    dumps_hello,
    dumps_request,
    dumps_response,
    loads_error,
    loads_response,
)
from repro.queries.ast import Conjunction
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import (
    MissingSketchError,
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardedService,
    SketchStore,
    publish_database,
    serve_in_thread,
)

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]
SHARD_COUNTS = [1, 2, 4]

PLAN = LinearPlan(
    terms=(
        PlanTerm(Conjunction.of((0, 1), (1, 1)), 1.0),
        PlanTerm(Conjunction.of((2, 1)), -0.5),
    ),
    description="parity plan",
)

#: One request per protocol family, plus the Appendix F partition paths
#: (counts_block / fraction over subsets only coverable as disjoint
#: unions) — the reductions those exercise are weight histograms, not
#: plain bit sums.
REQUESTS = [
    CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    CountsBlockRequest.build((0, 1, 2), [(1, 0, 1), (0, 1, 0)]),
    CountsBlockRequest.build((0, 1), []),
    EstimateManyRequest.build((1, 2, 3), [(1, 1, 0), (0, 0, 0)]),
    MarginalRequest.build((0, 1)),
    FractionRequest.build((1, 2, 3), (0, 1, 1)),
    FractionRequest.build((0, 1, 2, 3), (1, 0, 1, 0)),
    AnyOfRequest.build([((0,), (1,)), ((2,), (1,)), ((3,), (0,))]),
    ExactlyLRequest.build((0, 1, 2, 3), 2),
    ExactlyLRequest.build((0, 1, 2), 0),
    BitMatrixRequest.build((0, 1, 2), 1),
    BitMatrixRequest.build((1, 3), 0),
    EvaluatePlanRequest.from_plan(PLAN),
]


@pytest.fixture(scope="module", params=[BiasedPRF, CounterPRF], ids=lambda c: c.algorithm)
def stack(request, tmp_path_factory):
    """A single-store engine plus running 1/2/4-shard services (one PRF
    backend per param), with per-worker persistent caches enabled."""
    backend = request.param
    params = PrivacyParams(p=0.3)
    prf = backend(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(120, 4, rng=np.random.default_rng(11))
    sketcher = Sketcher(
        params, prf, sketch_bits=8, rng=np.random.default_rng(12)
    )
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=11)
    engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
    base = tmp_path_factory.mktemp(f"shards-{backend.algorithm}")
    services = {}
    try:
        for n_shards in SHARD_COUNTS:
            services[n_shards] = ShardedService.from_store(
                store, prf, n_shards, base / f"n{n_shards}", cache=True
            ).start()
        yield {"engine": engine, "services": services, "prf": prf}
    finally:
        for service in services.values():
            service.close()


class TestParity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_every_family_bit_identical_cold_and_warm(self, stack, n_shards):
        engine = stack["engine"]
        coordinator = stack["services"][n_shards].coordinator
        for request in REQUESTS:
            expected = dumps_response(engine.execute(request))
            # Cold (first touch of each worker's cache), then warm.
            for _pass in ("cold", "warm"):
                got = dumps_response(coordinator.execute(request))
                assert got == expected, (request.kind, n_shards, _pass)

    def test_ping_answered_like_the_engine(self, stack):
        request = PingRequest.build()
        coordinator = stack["services"][2].coordinator
        assert dumps_response(coordinator.execute(request)) == dumps_response(
            stack["engine"].execute(request)
        )

    def test_served_over_the_wire(self, stack):
        """The coordinator is a drop-in engine behind RemoteServer."""
        engine = stack["engine"]
        coordinator = stack["services"][4].coordinator
        server = RemoteServer(coordinator, {"alice": "sesame"})
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                for request in REQUESTS:
                    expected = dumps_response(engine.execute(request))
                    got = dumps_response(client.execute(request))
                    assert got == expected, request.kind


def raises_of(callable_, request):
    try:
        callable_(request)
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return type(exc), str(exc)
    return None


class TestErrorParity:
    """Same error type, same message, same precedence as the engine."""

    ERROR_REQUESTS = [
        # Unpublished subset, no partition either.
        CountsBlockRequest.build((9,), [(1,)]),
        EstimateManyRequest.build((5, 6), [(1, 1)]),
        # (0, 2) is not sketched and {(0,), (2,)} covers it -> NOT an
        # error; (0, 1, 2, 3, 4) is not coverable (no (4,)).
        FractionRequest.build((0, 1, 2, 3, 4), (1, 1, 1, 1, 1)),
        # Width guard precedes everything in marginal.
        MarginalRequest.build(tuple(range(13))),
        # exactly_l: l out of range is checked AFTER gathering.
        ExactlyLRequest.build((0, 1), 5),
        # any_of needs every component sketched directly — (0, 2) is
        # coverable as a disjoint union but never published itself.
        AnyOfRequest.build([((0,), (1,)), ((0, 2), (1, 1))]),
        # bit_matrix needs per-bit publications.
        BitMatrixRequest.build((0, 9), 1),
    ]

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_error_surface_matches_engine(self, stack, n_shards):
        engine = stack["engine"]
        coordinator = stack["services"][n_shards].coordinator
        for request in self.ERROR_REQUESTS:
            expected = raises_of(engine.execute, request)
            got = raises_of(coordinator.execute, request)
            assert expected is not None, request.kind
            assert got == expected, request.kind

    def test_empty_any_of(self, stack):
        engine = stack["engine"]
        coordinator = stack["services"][2].coordinator
        request = AnyOfRequest(queries=())
        assert raises_of(coordinator.execute, request) == raises_of(
            engine.execute, request
        ) == (ValueError, "need at least one conjunction")

    def test_unknown_kind_message(self, stack):
        coordinator = stack["services"][2].coordinator

        class FakeRequest:
            kind = "telepathy"

        with pytest.raises(ProtocolError) as err:
            coordinator.execute(FakeRequest())
        assert "unknown request kind 'telepathy'" in str(err.value)

    def test_missing_sketch_is_missing_everywhere(self, stack):
        coordinator = stack["services"][4].coordinator
        with pytest.raises(
            MissingSketchError, match=r"subset \(9,\) is neither sketched"
        ):
            coordinator.execute(CountsBlockRequest.build((9,), [(1,)]))
        with pytest.raises(MissingSketchError, match=r"subset \(5, 6\) was not"):
            coordinator.execute(EstimateManyRequest.build((5, 6), [(1, 1)]))


class TestEmptyPositions:
    """``bit_matrix`` / ``exactly_l`` over no positions: a typed
    ``malformed_request`` on every path (in process, over TCP, sharded),
    refused at the perimeter before any charge — never an internal error."""

    #: Wire forms, built past the validating ``build`` constructors.
    RAW = [BitMatrixRequest(positions=(), target=1), ExactlyLRequest(positions=(), l=0)]

    @staticmethod
    def target(stack, n_shards):
        if n_shards is None:
            return stack["engine"]
        return stack["services"][n_shards].coordinator

    @pytest.mark.parametrize("n_shards", [None, 2], ids=["engine", "sharded"])
    def test_in_process(self, stack, n_shards):
        target = self.target(stack, n_shards)
        for call in (lambda: target.bit_matrix(()), lambda: target.exactly_l([], 0)):
            with pytest.raises(ProtocolError) as info:
                call()
            assert info.value.code == "malformed_request"
            assert "at least one bit position" in str(info.value)

    @pytest.mark.parametrize("n_shards", [None, 2], ids=["engine", "sharded"])
    def test_over_tcp(self, stack, n_shards):
        server = RemoteServer(
            self.target(stack, n_shards), {"alice": "sesame"}, epsilon=1000.0
        )
        before = server.remaining_sketches("alice")
        lines = [dumps_hello("sesame")]
        lines += [dumps_request(request) for request in self.RAW]
        lines.append(dumps_request(PingRequest.build()))
        with serve_in_thread(server) as (host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                with sock.makefile("rw", encoding="utf-8", newline="\n") as wire:
                    wire.write("".join(line + "\n" for line in lines))
                    wire.flush()
                    wire.readline()  # the welcome
                    errors = [loads_error(wire.readline()) for _ in self.RAW]
                    assert loads_response(wire.readline()).result == {"ok": True}
        assert [error.code for error in errors] == ["malformed_request"] * 2
        assert server.remaining_sketches("alice") == before


# ----------------------------------------------------------------------
# A ragged store: shards with no publisher, or no aligned user
# ----------------------------------------------------------------------
RAGGED_SUBSETS = [(0, 1), (1, 2), (0,), (1,), (2,), (3,), (4,)]
RAGGED_SHARDS = [2, 4, 5]

#: (3,) reaches only the first fifth of the users and (4,) only the last
#: fifth, so most shards hold no publisher of one or both, and no user
#: published both.
RAGGED_ANSWERS = [
    CountsBlockRequest.build((3,), [(0,), (1,)]),
    CountsBlockRequest.build((4,), [(1,)]),
    EstimateManyRequest.build((3,), [(1,), (0,)]),
    MarginalRequest.build((4,)),
    FractionRequest.build((3,), (1,)),
    FractionRequest.build((0, 1, 3), (1, 0, 1)),  # partition (0, 1) + (3,)
    CountsBlockRequest.build((0, 1, 3), [(1, 0, 1), (0, 0, 0)]),
    CountsBlockRequest.build((1, 2, 4), [(1, 1, 0), (0, 0, 1)]),  # (1, 2) + (4,)
    AnyOfRequest.build([((3,), (1,)), ((0, 1), (1, 0))]),
    ExactlyLRequest.build((2, 4), 1),
    BitMatrixRequest.build((0, 3), 1),
    BitMatrixRequest.build((4, 2), 0),
]

#: (3,) x (4,): every piece is published somewhere, but by no common user.
RAGGED_ERRORS = [
    FractionRequest.build((3, 4), (1, 1)),
    CountsBlockRequest.build((3, 4), [(1, 0)]),
    AnyOfRequest.build([((3,), (1,)), ((4,), (1,))]),
    ExactlyLRequest.build((3, 4), 7),  # alignment fails before the l check
    BitMatrixRequest.build((3, 4), 1),
]


@pytest.fixture(scope="module")
def ragged(tmp_path_factory):
    params = PrivacyParams(p=0.3)
    prf = CounterPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(100, 5, rng=np.random.default_rng(21))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(22))
    published = publish_database(database, sketcher, RAGGED_SUBSETS, workers=1, seed=21)
    columns = published.to_columns()
    universe = user_universe(columns)
    head, _ = split_columns_at(columns, universe[len(universe) // 5])
    _, tail = split_columns_at(columns, universe[4 * len(universe) // 5])
    columns[(3,)] = head[(3,)]
    columns[(4,)] = tail[(4,)]
    store = SketchStore.from_columns(columns)
    engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
    base = tmp_path_factory.mktemp("ragged")
    services = {}
    try:
        for n_shards in RAGGED_SHARDS:
            services[n_shards] = ShardedService.from_store(
                store, prf, n_shards, base / f"n{n_shards}", cache=True
            ).start()
        yield engine, services
    finally:
        for service in services.values():
            service.close()


class TestRaggedParity:
    @pytest.mark.parametrize("n_shards", RAGGED_SHARDS)
    def test_answers_bit_identical(self, ragged, n_shards):
        engine, services = ragged
        coordinator = services[n_shards].coordinator
        for request in RAGGED_ANSWERS:
            expected = dumps_response(engine.execute(request))
            assert dumps_response(coordinator.execute(request)) == expected, (
                request, n_shards,
            )

    @pytest.mark.parametrize("n_shards", RAGGED_SHARDS)
    def test_no_common_user_errors_match(self, ragged, n_shards):
        engine, services = ragged
        coordinator = services[n_shards].coordinator
        for request in RAGGED_ERRORS:
            expected = raises_of(engine.execute, request)
            assert expected is not None and expected[0] is ValueError, request
            assert "no user published sketches for all of" in expected[1]
            assert raises_of(coordinator.execute, request) == expected, (
                request, n_shards,
            )
