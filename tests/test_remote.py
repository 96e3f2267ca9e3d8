"""The serving tier: local-vs-remote parity and the privacy perimeter.

Parity is *bit*-identity, not approximate equality: the wire carries
``repr`` shortest-round-trip doubles, so every float a remote analyst
receives must equal the local engine's answer exactly.  The perimeter
tests pin the three server-only behaviours — bearer-token auth,
per-analyst rate limiting, and the per-analyst privacy budget charged
before dispatch (an over-budget request returns the structured error
and releases nothing).
"""

import copy
import json
import socket

import numpy as np
import pytest

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.core.accountant import BudgetExceeded
from repro.data import bernoulli_panel
from repro.protocol import (
    REQUEST_TAG,
    CountsBlockRequest,
    PingRequest,
    RemoteQueryError,
    dumps_hello,
    dumps_request,
    loads_error,
    loads_response,
)
from repro.queries.ast import Conjunction, Literal
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import (
    MissingSketchError,
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    publish_database,
    serve_in_thread,
)

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]


def make_engine(num_users: int = 150, seed: int = 3) -> QueryEngine:
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    return QueryEngine(database.schema, store, SketchEstimator(params, prf))


@pytest.fixture(scope="module")
def engine():
    return make_engine()


@pytest.fixture(scope="module")
def remote(engine):
    server = RemoteServer(engine, {"alice": "sesame"})
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, "sesame") as client:
            yield client


VALUES = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestParity:
    """Each query family answers bit-identically to the local engine."""

    def test_counts_block(self, engine, remote):
        assert remote.counts_block((0, 1), VALUES) == engine.counts_block(
            (0, 1), VALUES
        )

    def test_counts_block_partition_path(self, engine, remote):
        # (0, 1, 2, 3) is not sketched directly; Appendix F combines
        # (0, 1) + (2, 3)?  No — (2, 3) is absent, so the cover is
        # (0,)+(1,)+(2,)+(3,).  Either way the remote path must match.
        value = (1, 0, 1, 0)
        assert remote.counts_block((0, 1, 2, 3), [value]) == engine.counts_block(
            (0, 1, 2, 3), [value]
        )

    def test_count_and_fraction(self, engine, remote):
        assert remote.count((0, 1), (1, 1)) == engine.count((0, 1), (1, 1))
        assert remote.fraction((0, 1), (1, 1)) == engine.fraction((0, 1), (1, 1))

    def test_marginal(self, engine, remote):
        local = engine.marginal((0, 1))
        over_the_wire = remote.marginal((0, 1))
        assert over_the_wire.tolist() == local.tolist()

    def test_estimate_many(self, engine, remote):
        assert remote.estimate_many((0, 1), VALUES) == engine.estimate_many(
            (0, 1), VALUES
        )
        assert remote.estimate((0, 1), (1, 1)) == engine.estimate((0, 1), (1, 1))

    def test_any_of(self, engine, remote):
        queries = [
            Conjunction((Literal(0, 1), Literal(1, 1))),
            Conjunction((Literal(1, 0),)),
        ]
        assert remote.any_of(queries) == engine.any_of(queries)

    def test_exactly_l(self, engine, remote):
        for l in range(5):
            assert remote.exactly_l((0, 1, 2, 3), l) == engine.exactly_l(
                (0, 1, 2, 3), l
            )

    def test_bit_matrix(self, engine, remote):
        local = engine.bit_matrix((0, 1, 2, 3))
        over_the_wire = remote.bit_matrix((0, 1, 2, 3))
        assert over_the_wire.shape == local.shape
        assert np.array_equal(over_the_wire, local)

    def test_evaluate_plan(self, engine, remote):
        plan = LinearPlan(
            terms=(
                PlanTerm(Conjunction((Literal(0, 1), Literal(1, 1))), 2.0),
                PlanTerm(Conjunction((Literal(0, 1), Literal(1, 0))), -0.5),
            ),
            description="2 I(11) - 0.5 I(10)",
        )
        assert remote.evaluate(plan) == engine.evaluate(plan)

    def test_errors_map_to_local_exception_types(self, remote):
        with pytest.raises(MissingSketchError):
            remote.counts_block((5, 7), [(1, 1)])
        with pytest.raises(ValueError):
            remote.marginal(tuple(range(13)))  # width > 12


class TestPerimeterErrorEnvelopes:
    """A bad request line gets a typed error envelope, never a traceback,
    and the connection keeps serving."""

    @staticmethod
    def error_for(engine, line: str):
        server = RemoteServer(engine, {"alice": "sesame"})
        with serve_in_thread(server) as (host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                with sock.makefile("rw", encoding="utf-8", newline="\n") as wire:
                    for out in (dumps_hello("sesame"), line, dumps_request(PingRequest.build())):
                        wire.write(out + "\n")
                    wire.flush()
                    wire.readline()  # the welcome
                    error = loads_error(wire.readline())
                    assert loads_response(wire.readline()).result == {"ok": True}
        assert "Traceback" not in error.message
        return error

    def test_malformed_line_is_malformed_request(self, engine):
        assert self.error_for(engine, "{truncated").code == "malformed_request"

    def test_unknown_format_is_malformed_request(self, engine):
        line = json.dumps({"format": "mystery", "version": 1})
        assert self.error_for(engine, line).code == "malformed_request"

    def test_wrong_version_is_unsupported_version(self, engine):
        line = json.dumps({"format": REQUEST_TAG, "version": 9})
        assert self.error_for(engine, line).code == "unsupported_version"

    def test_missing_sketch_names_the_subset(self, engine):
        line = dumps_request(CountsBlockRequest.build((5, 7), [(1, 1)]))
        error = self.error_for(engine, line)
        assert error.code == "missing_sketch"
        assert "(5, 7)" in error.message


class TestAuth:
    def test_wrong_token_is_rejected(self, engine):
        server = RemoteServer(engine, {"alice": "sesame"})
        with serve_in_thread(server) as (host, port):
            with pytest.raises(RemoteQueryError) as info:
                RemoteQueryEngine(host, port, "open says me")
            assert info.value.code == "unauthorized"

    def test_token_resolves_to_analyst_name(self, remote):
        assert remote.analyst == "alice"

    def test_duplicate_tokens_are_refused(self, engine):
        with pytest.raises(ValueError, match="tokens must be unique"):
            RemoteServer(engine, {"alice": "same", "bob": "same"})


class TestRateLimit:
    def test_frozen_clock_exhausts_bucket(self, engine):
        # A frozen clock never refills the bucket: exactly `burst`
        # requests pass, then every further one is rate_limited — and a
        # rejected request costs the analyst no budget.
        server = RemoteServer(
            engine, {"alice": "sesame"}, rate_limit=1.0, burst=3, clock=lambda: 0.0
        )
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                for _ in range(3):
                    client.fraction((0, 1), (1, 1))
                with pytest.raises(RemoteQueryError) as info:
                    client.fraction((0, 1), (1, 1))
                assert info.value.code == "rate_limited"
                # The connection survives the rejection.
                with pytest.raises(RemoteQueryError):
                    client.fraction((0, 1), (1, 1))

    def test_advancing_clock_refills(self, engine):
        now = {"t": 0.0}
        server = RemoteServer(
            engine,
            {"alice": "sesame"},
            rate_limit=1.0,
            burst=1,
            clock=lambda: now["t"],
        )
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                client.fraction((0, 1), (1, 1))
                with pytest.raises(RemoteQueryError):
                    client.fraction((0, 1), (1, 1))
                now["t"] = 5.0
                client.fraction((0, 1), (1, 1))


def budget_server(engine, epsilon=1000.0, **kwargs):
    """epsilon=1000 with p=0.3 affords exactly 2 subset releases."""
    return RemoteServer(engine, {"alice": "sesame"}, epsilon=epsilon, **kwargs)


class TestPrivacyPerimeter:
    def test_budget_caps_distinct_subsets(self):
        engine = make_engine()
        server = budget_server(engine)
        assert server.accountant.max_sketches == 2
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                client.counts_block((0, 1), VALUES)  # release 1
                client.fraction((1, 2, 3), (1, 1, 1))  # release 2
                with pytest.raises(BudgetExceeded):
                    client.fraction((0,), (1,))  # would be release 3
                assert server.remaining_sketches("alice") == 0

    def test_requerying_paid_subsets_is_free(self):
        engine = make_engine()
        server = budget_server(engine)
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                first = client.counts_block((0, 1), VALUES)
                for _ in range(5):
                    assert client.counts_block((0, 1), VALUES) == first
                    client.marginal((0, 1))  # same subset, still free
                assert server.remaining_sketches("alice") == 1

    def test_over_budget_request_releases_nothing(self):
        # exactly_l over 4 per-bit subsets needs 4 releases against a
        # budget of 2: the charge is all-or-nothing, so afterwards the
        # analyst can still afford both remaining releases.
        engine = make_engine()
        server = budget_server(engine)
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                with pytest.raises(BudgetExceeded):
                    client.exactly_l((0, 1, 2, 3), 2)
                assert server.remaining_sketches("alice") == 2
                # Nothing was booked: two fresh subsets still fit.
                client.fraction((0,), (1,))
                client.fraction((1,), (1,))
                assert server.remaining_sketches("alice") == 0

    def test_budget_exhaustion_leaves_store_untouched(self):
        engine = make_engine()
        before = copy.deepcopy(engine.store.to_columns())
        server = budget_server(engine)
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                client.counts_block((0, 1), VALUES)
                client.counts_block((1, 2, 3), [(1, 1, 1)])
                with pytest.raises(BudgetExceeded):
                    client.counts_block((2,), [(1,)])
        after = engine.store.to_columns()
        assert sorted(before) == sorted(after)
        for subset, column in before.items():
            assert np.array_equal(column.keys, after[subset].keys)
            assert np.array_equal(column.num_bits, after[subset].num_bits)
            assert list(column.user_ids) == list(after[subset].user_ids)
        # ... and the engine still answers identically to a fresh one.
        fresh = make_engine()
        assert engine.counts_block((0, 1), VALUES) == fresh.counts_block(
            (0, 1), VALUES
        )

    def test_budgets_are_per_analyst(self):
        engine = make_engine()
        server = RemoteServer(
            engine, {"alice": "sesame", "bob": "thunder"}, epsilon=1000.0
        )
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as alice:
                alice.counts_block((0, 1), VALUES)
                alice.counts_block((1, 2, 3), [(1, 1, 1)])
                with pytest.raises(BudgetExceeded):
                    alice.counts_block((0,), [(1,)])
            with RemoteQueryEngine(host, port, "thunder") as bob:
                # Alice's exhaustion does not touch Bob's ledger.
                assert bob.counts_block((0, 1), VALUES) == engine.counts_block(
                    (0, 1), VALUES
                )

    def test_mid_session_exhaustion_is_structured_not_fatal(self):
        engine = make_engine()
        server = budget_server(engine)
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                client.counts_block((0, 1), VALUES)
                client.counts_block((1, 2, 3), [(1, 1, 1)])
                with pytest.raises(BudgetExceeded):
                    client.counts_block((3,), [(1,)])
                # The session continues: paid subsets still answer.
                assert client.counts_block((0, 1), VALUES) == engine.counts_block(
                    (0, 1), VALUES
                )


class TestDispatchTable:
    def test_execute_rejects_unknown_kind(self, engine):
        class Bogus(CountsBlockRequest):
            kind = "histogram_3d"

        from repro.protocol import ProtocolError

        with pytest.raises(ProtocolError) as info:
            engine.execute(Bogus.build((0, 1), [(1, 1)]))
        assert info.value.code == "unknown_kind"

    def test_public_methods_ride_the_dispatch_table(self, engine):
        response = engine.execute(CountsBlockRequest.build((0, 1), VALUES))
        assert response.kind == "counts_block"
        assert list(response.result) == engine.counts_block((0, 1), VALUES)
