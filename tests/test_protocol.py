"""The typed query protocol: round trips and error envelopes.

Two layers of guarantees:

* every request kind satisfies ``loads_request(dumps_request(x)) == x``
  (property-tested over generated subsets/values/plans);
* every failure crosses the wire as the structured error envelope —
  code + message, never a raw traceback — and maps back to the exception
  type a local caller would have caught.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import BudgetExceeded
from repro.core.estimator import QueryEstimate
from repro.protocol import (
    PROTOCOL_VERSION,
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    ProtocolError,
    ShardAdoptRequest,
    ShardCommitRequest,
    ShardPartialRequest,
    ShardSnapshotRequest,
    QueryError,
    RemoteQueryError,
    REQUEST_KINDS,
    REQUEST_TAG,
    dumps_error,
    dumps_request,
    dumps_response,
    dumps_wire_message,
    error_from_exception,
    estimate_from_payload,
    estimate_to_payload,
    exception_from_error,
    loads_error,
    loads_request,
    loads_response,
    loads_wire_message,
    parse_reply,
)
from repro.protocol.messages import QueryResponse
from repro.queries.ast import Conjunction, Literal
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import MissingSketchError

# ----------------------------------------------------------------------
# Strategies: structurally valid requests of every kind
# ----------------------------------------------------------------------
subsets = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=5, unique=True
).map(tuple)


def values_for(subset):
    width = len(subset)
    return st.lists(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=width, max_size=width
        ).map(tuple),
        min_size=1,
        max_size=6,
    )


block_requests = subsets.flatmap(
    lambda s: values_for(s).map(lambda vs: (s, vs))
)


@st.composite
def any_of_requests(draw):
    components = draw(
        st.lists(
            subsets.flatmap(
                lambda s: values_for(s).map(lambda vs: (s, vs[0]))
            ),
            min_size=1,
            max_size=4,
        )
    )
    return AnyOfRequest.build(components)


@st.composite
def plan_requests(draw):
    terms = draw(
        st.lists(
            st.tuples(
                subsets.flatmap(lambda s: values_for(s).map(lambda vs: (s, vs[0]))),
                st.floats(
                    allow_nan=False, allow_infinity=False, min_value=-64, max_value=64
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return EvaluatePlanRequest.build(
        [(subset, value, coeff) for (subset, value), coeff in terms],
        description=draw(st.text(max_size=20)),
    )


class TestRoundTrips:
    """Every kind: ``loads_request(dumps_request(x)) == x``."""

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_counts_block(self, pair):
        subset, values = pair
        request = CountsBlockRequest.build(subset, values)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_estimate_many(self, pair):
        subset, values = pair
        request = EstimateManyRequest.build(subset, values)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets)
    def test_marginal(self, subset):
        request = MarginalRequest.build(subset)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_fraction(self, pair):
        subset, values = pair
        request = FractionRequest.build(subset, values[0])
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(any_of_requests())
    def test_any_of(self, request):
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets, st.integers(min_value=0, max_value=5))
    def test_exactly_l(self, positions, l):
        request = ExactlyLRequest.build(positions, l)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets, st.integers(min_value=0, max_value=1))
    def test_bit_matrix(self, positions, target):
        request = BitMatrixRequest.build(positions, target)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(plan_requests())
    def test_evaluate_plan(self, request):
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(plan_requests())
    def test_plan_survives_ast_round_trip(self, request):
        """to_plan canonicalises literal order (sorted by position), after
        which from_plan/to_plan is the identity."""
        canonical = EvaluatePlanRequest.from_plan(request.to_plan())
        assert EvaluatePlanRequest.from_plan(canonical.to_plan()) == canonical
        # Canonicalisation only reorders literals within a term.
        for (subset, value, coeff), (c_subset, c_value, c_coeff) in zip(
            request.terms, canonical.terms
        ):
            assert sorted(zip(c_subset, c_value)) == sorted(zip(subset, value))
            assert c_coeff == coeff

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(ShardPartialRequest.OPS),
        st.lists(subsets, min_size=1, max_size=3, unique=True),
        st.data(),
    )
    def test_shard_partial(self, op, subset_list, data):
        groups = data.draw(
            st.lists(
                st.tuples(
                    *[
                        st.tuples(
                            *[st.integers(0, 1) for _ in subset]
                        )
                        for subset in subset_list
                    ]
                ),
                min_size=0,
                max_size=3,
            )
        )
        request = ShardPartialRequest.build(op, subset_list, groups)
        assert loads_request(dumps_request(request)) == request

    def test_every_registered_kind_is_covered(self):
        assert sorted(REQUEST_KINDS) == sorted(
            [
                "counts_block",
                "estimate_many",
                "marginal",
                "fraction",
                "any_of",
                "exactly_l",
                "bit_matrix",
                "evaluate_plan",
                "shard_partial",
                "ping",
                "status",
                # The rebalancing surface; the worker-internal kinds'
                # round trips are TestWorkerInternalKinds below.
                "shard_snapshot",
                "shard_adopt",
                "shard_commit",
                "rebalance_split",
                "rebalance_merge",
                "rebalance_status",
            ]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_estimate_payload_is_exact(self, fraction, num_users):
        estimate = QueryEstimate(
            fraction=fraction,
            count=fraction * num_users,
            raw_fraction=fraction / 3.0 if fraction else 0.0,
            num_users=num_users,
            half_width=abs(fraction) / 7.0 if fraction else 0.125,
            delta=0.05,
        )
        # JSON text round trip included: repr shortest-round-trip floats.
        payload = json.loads(json.dumps(estimate_to_payload(estimate)))
        assert estimate_from_payload(payload) == estimate


class TestWorkerInternalKinds:
    """The service → worker rebalance kinds: round trips, and malformed
    bodies refused with a typed ``malformed_request``."""

    VALID = [
        ShardSnapshotRequest.build(
            "carve",
            "/d/shard-2.npz",
            boundary="user-0040",
            left_path="/d/shard-0-split.npz",
            warm_path="/d/shard-2-warm.npz",
        ),
        ShardSnapshotRequest.build("carve", "/d/r.npz", left_path="/d/l.npz"),
        ShardSnapshotRequest.build("export", "/d/h.npz", warm_path="/d/w.npz"),
        ShardSnapshotRequest.build("export", "/d/h.npz"),
        ShardAdoptRequest.build("/d/h.npz", "/d/m.npz", warm_path="/d/w.npz"),
        ShardAdoptRequest.build("/d/h.npz", "/d/m.npz"),
        ShardCommitRequest.build("/d/m.npz"),
    ]

    MALFORMED = {
        "snapshot missing right_path": {"kind": "shard_snapshot", "op": "export"},
        "snapshot missing op": {"kind": "shard_snapshot", "right_path": "/d/r.npz"},
        "snapshot unknown op": {
            "kind": "shard_snapshot", "op": "drop", "right_path": "/d/r.npz",
        },
        "snapshot empty right_path": {
            "kind": "shard_snapshot", "op": "export", "right_path": "",
        },
        "carve missing left_path": {
            "kind": "shard_snapshot", "op": "carve", "right_path": "/d/r.npz",
        },
        "carve empty left_path": {
            "kind": "shard_snapshot",
            "op": "carve",
            "right_path": "/d/r.npz",
            "left_path": "",
        },
        "snapshot empty warm_path": {
            "kind": "shard_snapshot",
            "op": "export",
            "right_path": "/d/r.npz",
            "warm_path": "",
        },
        "adopt missing handoff_path": {"kind": "shard_adopt", "save_path": "/d/m.npz"},
        "adopt missing save_path": {"kind": "shard_adopt", "handoff_path": "/d/h.npz"},
        "adopt empty save_path": {
            "kind": "shard_adopt", "handoff_path": "/d/h.npz", "save_path": "",
        },
        "adopt empty warm_path": {
            "kind": "shard_adopt",
            "handoff_path": "/d/h.npz",
            "save_path": "/d/m.npz",
            "warm_path": "",
        },
        "adopt non-string handoff_path": {
            "kind": "shard_adopt", "handoff_path": 7, "save_path": "/d/m.npz",
        },
        "commit missing store_path": {"kind": "shard_commit"},
        "commit empty store_path": {"kind": "shard_commit", "store_path": ""},
        "commit null store_path": {"kind": "shard_commit", "store_path": None},
    }

    @pytest.mark.parametrize("request_", VALID, ids=lambda r: r.kind)
    def test_round_trip(self, request_):
        assert loads_request(dumps_request(request_)) == request_
        assert request_.subsets_released() == ()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_body_is_refused(self, case):
        body = self.MALFORMED[case]
        payload = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)
        with pytest.raises(ProtocolError) as info:
            loads_request(payload)
        assert info.value.code == "malformed_request"


class TestEnvelope:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed wire message") as info:
            loads_request("{not json")
        assert info.value.code == "malformed_request"

    def test_wrong_tag(self):
        with pytest.raises(ProtocolError, match="expected a repro-query-request"):
            loads_request(json.dumps({"format": "nope", "version": PROTOCOL_VERSION}))

    def test_wrong_version(self):
        with pytest.raises(ProtocolError, match="version") as info:
            loads_request(json.dumps({"format": REQUEST_TAG, "version": 99}))
        assert info.value.code == "unsupported_version"

    def test_unknown_kind(self):
        payload = dumps_wire_message(
            REQUEST_TAG, PROTOCOL_VERSION, {"kind": "histogram_3d"}
        )
        with pytest.raises(ProtocolError, match="unknown request kind") as info:
            loads_request(payload)
        assert info.value.code == "unknown_kind"

    def test_missing_field(self):
        payload = dumps_wire_message(
            REQUEST_TAG, PROTOCOL_VERSION, {"kind": "counts_block", "subset": [0]}
        )
        with pytest.raises(ProtocolError, match="missing required field"):
            loads_request(payload)

    def test_width_mismatch(self):
        with pytest.raises(ProtocolError, match="width"):
            CountsBlockRequest.build((0, 1), [(1,)])

    def test_protocol_error_is_a_value_error(self):
        """Legacy callers catching ValueError keep working."""
        assert issubclass(ProtocolError, ValueError)

    def test_error_envelope_round_trip(self):
        error = QueryError("budget_exceeded", "analyst 'a' is out of budget")
        assert loads_error(dumps_error(error)) == error

    def test_response_round_trip_is_json_native(self):
        response = QueryResponse(kind="marginal", result=[0.25, 0.75])
        assert loads_response(dumps_response(response)).result == [0.25, 0.75]

    def test_parse_reply_raises_mapped_exception(self):
        with pytest.raises(BudgetExceeded):
            parse_reply(dumps_error(QueryError("budget_exceeded", "spent")))
        with pytest.raises(MissingSketchError):
            parse_reply(dumps_error(QueryError("missing_sketch", "no (7, 9)")))
        with pytest.raises(ValueError):
            parse_reply(dumps_error(QueryError("invalid_query", "bad width")))
        with pytest.raises(RemoteQueryError) as info:
            parse_reply(dumps_error(QueryError("rate_limited", "slow down")))
        assert info.value.code == "rate_limited"

    def test_error_from_exception_codes(self):
        assert error_from_exception(BudgetExceeded("x")).code == "budget_exceeded"
        assert error_from_exception(MissingSketchError("x")).code == "missing_sketch"
        assert error_from_exception(ValueError("x")).code == "invalid_query"
        assert (
            error_from_exception(ProtocolError("unknown_kind", "x")).code
            == "unknown_kind"
        )
        internal = error_from_exception(RuntimeError("boom"))
        assert internal.code == "internal_error"
        assert "Traceback" not in internal.message
        assert "boom" in internal.message

    def test_exception_round_trip_preserves_type(self):
        for exc in (
            BudgetExceeded("a"),
            MissingSketchError("b"),
            ValueError("c"),
            ProtocolError("malformed_request", "d"),
        ):
            mapped = exception_from_error(error_from_exception(exc))
            assert type(mapped) is type(exc)
