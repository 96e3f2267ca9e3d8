"""One query planner over integer sufficient statistics.

Mishra & Sandler's estimators are functions of integer counts:
Algorithm 2 de-biases the bit sum of one subset's p-perturbed indicator
column, and the Appendix E/F combinations solve a ``(k+1)``-entry
Hamming-weight histogram of ``k`` aligned indicator columns.
:class:`QueryPlanner` answers every protocol query family from exactly
those integers, asked of a **stats source**:

* ``_published()`` — the subset catalog (a tuple snapshot);
* ``_bit_sums(subset, values)`` — ``(sums, num_users)``: per value, the
  integer sum of the subset's indicator column;
* ``_weight_counts(subsets, groups)`` — ``(counts, num_users)``: a
  ``(G, k+1)`` int64 histogram per value group over the users aligned
  across ``subsets``; raises ``ValueError("no user published sketches
  for all of ...")`` when no user is aligned;
* ``_bit_matrix(subsets, values)`` — the aligned ``(M, k)`` indicator
  matrix itself.

The float arithmetic runs here, once, through
:meth:`~repro.core.estimator.SketchEstimator.estimate_from_counts` and
:func:`~repro.core.combine.combine_from_weight_counts`.
:class:`~repro.server.engine.QueryEngine` implements the source from its
cached evaluation columns; :class:`~repro.server.sharded.ShardCoordinator`
implements it by scattering ``shard_partial`` requests and merging the
integer partials.  A local answer and a sharded answer therefore come
from the same handler code, and the catalog checks, widths, partitions
and error messages (with their precedence) are shared too.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.combine import CombinedEstimate, combine_from_weight_counts
from ..core.estimator import QueryEstimate
from ..data.encoding import int_to_bits
from ..protocol.envelope import ProtocolError
from ..protocol.messages import (
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    PingRequest,
    QueryRequest,
    QueryResponse,
)
from ..queries.ast import Conjunction
from ..queries.conjunctive import LinearPlan, evaluate_plan

__all__ = ["MissingSketchError", "QueryPlanner", "search_exact_cover"]

Subset = Tuple[int, ...]


class MissingSketchError(KeyError):
    """Raised when a query needs a subset that nobody published.

    The message lists both the missing subset and what *is* available, so
    the fix (extend the publishing policy) is immediate.
    """


def search_exact_cover(
    target: Subset, subsets: Sequence[Subset]
) -> Optional[List[Subset]]:
    """Exact-cover search: express ``target`` as a disjoint union of
    ``subsets``.  Candidate lists are tiny (a publishing policy rarely
    has more than a few hundred subsets), so a simple backtracking
    search is plenty.

    The candidate order (``subsets`` insertion order, stably sorted by
    length descending) is part of the answer: the same catalog always
    yields the same partition, which is what lets a shard coordinator
    and a single-store engine over that catalog agree bit for bit.
    """
    remaining = frozenset(target)
    candidates = [s for s in subsets if set(s) <= remaining and s]
    candidates.sort(key=len, reverse=True)

    def search(uncovered: frozenset, start: int) -> Optional[List[Subset]]:
        if not uncovered:
            return []
        for index in range(start, len(candidates)):
            candidate = candidates[index]
            if set(candidate) <= uncovered:
                rest = search(uncovered - set(candidate), index + 1)
                if rest is not None:
                    return [candidate] + rest
        return None

    return search(remaining, 0)


class QueryPlanner:
    """Every query family, answered from a stats source's integers.

    Subclasses supply ``estimator`` (for ``p`` and Algorithm 2) and the
    four stats-source methods listed in the module docstring, and call
    ``QueryPlanner.__init__`` for the memo state.  ``execute`` is safe
    for concurrent serving: the catalog snapshot and partition memo are
    guarded by ``_memo_lock`` (which subclasses may share for their own
    memos), and they memoise pure functions of the catalog, so racing
    threads at worst compute the same partition twice.
    """

    def __init__(self) -> None:
        self._memo_lock = threading.Lock()
        self._published_snapshot: Tuple[Subset, ...] = ()
        self._catalog: frozenset = frozenset()
        # Exact-cover partitions are pure functions of (target, catalog):
        # memoised until the published snapshot changes (a store growing
        # new subsets), then dropped wholesale.
        self._partition_cache: Dict[Subset, Optional[List[Subset]]] = {}

    # ------------------------------------------------------------------
    # The stats source (implemented by subclasses)
    # ------------------------------------------------------------------
    def _published(self) -> Tuple[Subset, ...]:
        raise NotImplementedError

    def _bit_sums(
        self, subset: Subset, values: Sequence[Tuple[int, ...]]
    ) -> Tuple[List[int], int]:
        raise NotImplementedError

    def _weight_counts(
        self,
        subsets: Sequence[Subset],
        groups: Sequence[Tuple[Tuple[int, ...], ...]],
    ) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def _bit_matrix(
        self, subsets: Sequence[Subset], values: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The unified dispatch surface
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Answer one typed protocol request — the single dispatch point.

        Every public query method below is a thin wrapper that builds
        the matching :class:`~repro.protocol.messages.QueryRequest` and
        unwraps the response, so an in-process call and a remote call
        arriving over :mod:`repro.server.remote` execute byte-for-byte
        the same handler.  Results are native (floats, lists, arrays,
        :class:`QueryEstimate` objects); the protocol layer lowers them
        to JSON only when a wire is actually involved.

        Raises
        ------
        ProtocolError
            ``code="unknown_kind"`` for a request kind this engine has
            no handler for.
        MissingSketchError, ValueError
            Exactly as the corresponding public method would.
        """
        handler = self._HANDLERS.get(request.kind)
        if handler is None:
            raise ProtocolError(
                "unknown_kind",
                f"unknown request kind {request.kind!r}; this engine answers "
                f"{sorted(self._HANDLERS)}",
            )
        return QueryResponse(kind=request.kind, result=handler(self, request))

    # ------------------------------------------------------------------
    # Thin public wrappers over execute
    # ------------------------------------------------------------------
    def estimate(self, subset: Sequence[int], value: Sequence[int]) -> QueryEstimate:
        """Full Algorithm 2 estimate (with CI) for a directly-sketched subset."""
        return self.estimate_many(subset, [value])[0]

    def estimate_many(
        self, subset: Sequence[int], values: Sequence[Sequence[int]]
    ) -> List[QueryEstimate]:
        """Algorithm 2 estimates for many candidate values in one block call."""
        return list(self.execute(EstimateManyRequest.build(subset, values)).result)

    def marginal(self, subset: Sequence[int]) -> np.ndarray:
        """Estimated fraction for *every* candidate value of a subset.

        The full-marginal workload — all ``2**|B|`` de-biased frequencies
        from one block evaluation (values enumerated MSB-first).
        """
        return np.asarray(self.execute(MarginalRequest.build(subset)).result)

    def fraction(self, subset: Sequence[int], value: Sequence[int]) -> float:
        """Fraction of users with ``d_B = v``; combines sketches if needed.

        A directly-sketched subset is one Algorithm 2 estimate.
        Otherwise the Appendix F combination runs over the memoised
        exact-cover partition: the weight histogram of the pieces'
        virtual bits over the users aligned across them.
        """
        return self.execute(FractionRequest.build(subset, value)).result

    def count(self, subset: Sequence[int], value: Sequence[int]) -> float:
        """Estimated count ``I(B, v)``."""
        return self.counts_block(subset, [value])[0]

    def counts_block(
        self, subset: Sequence[int], values: Sequence[Tuple[int, ...]]
    ) -> List[float]:
        """Estimated counts for several values of one subset.

        Directly-sketched subsets resolve every value from one batch of
        bit sums.  Partition-covered subsets go through the Appendix F
        combination **batched**: one weight-count request covering every
        requested projection, instead of one per value.  Each entry
        equals ``count`` exactly.
        """
        return list(self.execute(CountsBlockRequest.build(subset, values)).result)

    def conjunction(self, query: Conjunction) -> float:
        """Fraction of users satisfying a conjunction of literals."""
        return self.fraction(query.subset, query.value)

    def any_of(self, queries: Sequence[Conjunction]) -> float:
        """Fraction of users satisfying at least one conjunction.

        Appendix F's complement trick: reconstruct the per-user count of
        satisfied components and return ``1 - Pr[none]``.  Each component
        conjunction's subset must have been sketched directly.
        """
        if not queries:
            raise ValueError("need at least one conjunction")
        return self.execute(
            AnyOfRequest.build([(q.subset, q.value) for q in queries])
        ).result

    def bit_matrix(self, positions: Sequence[int], target: int = 1) -> np.ndarray:
        """p-perturbed indicator matrix from per-bit sketches.

        Column ``j`` holds ``H(id, {pos_j}, (target,), s)`` per user — a
        p-perturbed indicator of ``d[pos_j] = target``.  Requires a
        per-bit publishing policy for the positions involved.
        """
        return self.execute(BitMatrixRequest.build(positions, target)).result

    def exactly_l(self, positions: Sequence[int], l: int) -> float:
        """Fraction of users with exactly ``l`` of the given bits set."""
        return self.execute(ExactlyLRequest.build(positions, l)).result

    def evaluate(self, plan: LinearPlan) -> float:
        """Execute a compiled linear plan against the sketches.

        Terms are grouped by subset and each group answered with one
        ``counts_block``, so a plan touching ``q`` subsets costs ``q``
        statistics requests instead of ``len(plan.terms)``.
        """
        return self.execute(EvaluatePlanRequest.from_plan(plan)).result

    # ------------------------------------------------------------------
    # Request handlers (the query-family implementations)
    # ------------------------------------------------------------------
    def _exec_estimate_many(self, request: EstimateManyRequest) -> List[QueryEstimate]:
        return self._estimates(request.subset, list(request.values))

    def _exec_marginal(self, request: MarginalRequest) -> np.ndarray:
        key = request.subset
        width = len(key)
        if width > 12:
            raise ValueError(
                f"a marginal over 2**{width} values is not sensible; "
                "query specific values instead"
            )
        candidates = [int_to_bits(v, width) for v in range(1 << width)]
        return np.asarray([e.fraction for e in self._estimates(key, candidates)])

    def _exec_fraction(self, request: FractionRequest) -> float:
        key, value = request.subset, request.value
        if key in self._current_catalog():
            return self._estimates(key, [value])[0].fraction
        partition = self._require_partition(key)
        projection = tuple(self._project_value(key, value, partition))
        counts, num_users = self._weight_counts(partition, [projection])
        return self._combine(counts[0], num_users).clamped_fraction

    def _exec_counts_block(self, request: CountsBlockRequest) -> List[float]:
        key = request.subset
        value_ts = list(request.values)
        if key in self._current_catalog():
            return [estimate.count for estimate in self._estimates(key, value_ts)]
        if not value_ts:
            return []
        partition = self._require_partition(key)
        # projections[j] = value j projected onto the partition pieces.
        projections = [
            tuple(self._project_value(key, value_t, partition)) for value_t in value_ts
        ]
        counts, num_users = self._weight_counts(partition, projections)
        return [
            self._combine(row, num_users).clamped_fraction * num_users
            for row in counts
        ]

    def _exec_any_of(self, request: AnyOfRequest) -> float:
        if not request.queries:
            raise ValueError("need at least one conjunction")
        subsets = [subset for subset, _value in request.queries]
        catalog = self._current_catalog()
        for subset in subsets:
            if subset not in catalog:
                raise MissingSketchError(
                    f"subset {subset} was not sketched; disjunctions need "
                    "each component's subset published directly"
                )
        group = tuple(value for _subset, value in request.queries)
        counts, num_users = self._weight_counts(subsets, [group])
        fraction = 1.0 - self._combine(counts[0], num_users).none_fraction
        return min(1.0, max(0.0, fraction))

    def _exec_bit_matrix(self, request: BitMatrixRequest) -> np.ndarray:
        subsets = self._per_bit_subsets(request.positions)
        target_t = (int(request.target),)
        return self._bit_matrix(subsets, [target_t] * len(subsets))

    def _exec_exactly_l(self, request: ExactlyLRequest) -> float:
        subsets = self._per_bit_subsets(request.positions)
        k = len(subsets)
        counts, num_users = self._weight_counts(subsets, [((1,),) * k])
        # Gathering precedes the l-range check.
        if not 0 <= request.l <= k:
            raise ValueError(f"l must be in [0, {k}], got {request.l}")
        return float(self._combine(counts[0], num_users).weight_distribution[request.l])

    def _exec_evaluate_plan(self, request: EvaluatePlanRequest) -> float:
        return evaluate_plan(
            request.to_plan(), self.count, block_count_fn=self.counts_block
        )

    def _exec_ping(self, request: PingRequest) -> dict:
        # Liveness only: answered in-process so a local engine, a shard
        # coordinator and a remote perimeter agree that ping is a valid,
        # free request.
        return {"ok": True}

    #: kind -> handler; the one table :meth:`execute` dispatches through.
    _HANDLERS = {
        CountsBlockRequest.kind: _exec_counts_block,
        EstimateManyRequest.kind: _exec_estimate_many,
        MarginalRequest.kind: _exec_marginal,
        FractionRequest.kind: _exec_fraction,
        AnyOfRequest.kind: _exec_any_of,
        ExactlyLRequest.kind: _exec_exactly_l,
        BitMatrixRequest.kind: _exec_bit_matrix,
        EvaluatePlanRequest.kind: _exec_evaluate_plan,
        PingRequest.kind: _exec_ping,
    }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _estimates(
        self, key: Subset, values: Sequence[Tuple[int, ...]]
    ) -> List[QueryEstimate]:
        """Algorithm 2 estimates from the subset's integer bit sums."""
        if key not in self._current_catalog():
            raise MissingSketchError(
                f"subset {key} was not sketched; available subsets: "
                f"{sorted(self._published())}"
            )
        sums, num_users = self._bit_sums(key, values)
        return [
            self.estimator.estimate_from_counts(bit_sum, num_users)
            for bit_sum in sums
        ]

    def _combine(self, counts: np.ndarray, num_users: int) -> CombinedEstimate:
        return combine_from_weight_counts(counts, num_users, self.estimator.params.p)

    def _per_bit_subsets(self, positions: Sequence[int]) -> List[Subset]:
        subsets = [(int(pos),) for pos in positions]
        catalog = self._current_catalog()
        for subset in subsets:
            if subset not in catalog:
                raise MissingSketchError(
                    f"bit {subset[0]} was not sketched individually; "
                    "use a per-bit publishing policy"
                )
        return subsets

    def _current_catalog(self) -> frozenset:
        """The published subsets as a set, re-read from the source.

        A changed snapshot (new subsets published) also drops the
        partition memo; publishing into an *existing* subset cannot
        change any partition.
        """
        published = self._published()
        with self._memo_lock:
            if published != self._published_snapshot:
                self._published_snapshot = published
                self._catalog = frozenset(published)
                self._partition_cache.clear()
            return self._catalog

    def _require_partition(self, target: Subset) -> List[Subset]:
        """The memoised partition of ``target``, or :class:`MissingSketchError`."""
        partition = self._find_partition(target)
        if partition is None:
            raise MissingSketchError(
                f"subset {target} is neither sketched nor a disjoint union of "
                f"sketched subsets; available: {sorted(self._published())}"
            )
        return partition

    def _find_partition(self, target: Subset) -> Optional[List[Subset]]:
        """Memoised exact-cover search (see :func:`search_exact_cover`)."""
        self._current_catalog()
        with self._memo_lock:
            if target in self._partition_cache:
                return self._partition_cache[target]
        partition = search_exact_cover(target, self._published())
        with self._memo_lock:
            self._partition_cache[target] = partition
        return partition

    @staticmethod
    def _project_value(
        target: Subset, value: Tuple[int, ...], partition: List[Subset]
    ) -> List[Tuple[int, ...]]:
        lookup = dict(zip(target, value))
        return [tuple(lookup[pos] for pos in piece) for piece in partition]
