"""Contiguous user-range partitioning — the shard axis of horizontal serving.

The paper's counting queries reduce by pure summation over users, so any
partition of the user population into disjoint groups recombines
*exactly*: per-group integer bit sums and Hamming-weight histograms add
up to precisely the statistics a single store would compute.  This
module picks the one partition that also preserves *order*: contiguous
ranges of the **sorted** user-id universe.

Why sorted-contiguous specifically: ``SketchStore.aligned_columns``
orders its common users by ``sorted(common)``.  When shard ``i`` holds
the ``i``-th contiguous slice of the sorted universe, every shard's
aligned order is itself sorted and every aligned user of shard ``i``
precedes every aligned user of shard ``i + 1`` — so concatenating
per-shard aligned results in shard order reproduces the single-store
aligned order exactly, row for row.  That is what lets a coordinator
return bit-identical ``bit_matrix`` responses (and exact argsort
reconstruction in the partitioner property tests) without any global
re-sort.

The helpers here are deliberately store-agnostic: they operate on the
``{subset: column}`` mapping produced by ``SketchStore.to_columns`` and
rebuild columns via ``type(column)(...)``, so ``repro.core`` does not
import ``repro.server``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TypeVar

import numpy as np

__all__ = [
    "merge_columns",
    "range_bounds",
    "split_columns_at",
    "split_columns_by_user_range",
    "user_universe",
]

Subset = Tuple[int, ...]
#: Any ``(user_ids, keys, num_bits, iterations)`` NamedTuple — in
#: practice :class:`repro.server.collector.SketchColumn`.
ColumnT = TypeVar("ColumnT")


def user_universe(columns: Dict[Subset, ColumnT]) -> List[str]:
    """Sorted union of every user id appearing in any column.

    Sorted lexicographically — the exact order
    ``SketchStore.aligned_columns`` sorts common users by, which is what
    makes contiguous ranges of this universe concatenation-compatible
    with single-store alignment (see the module docstring).
    """
    universe: set = set()
    for column in columns.values():
        universe.update(column.user_ids)
    return sorted(universe)


def range_bounds(num_users: int, n_shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` index ranges covering ``range(num_users)``.

    The first ``num_users % n_shards`` shards take one extra user, so
    shard sizes differ by at most one and concatenating the ranges in
    shard order reproduces ``range(num_users)`` exactly.  ``n_shards``
    may exceed ``num_users`` — the surplus shards get empty ranges.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if num_users < 0:
        raise ValueError(f"num_users must be >= 0, got {num_users}")
    base, extra = divmod(num_users, n_shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _filter_columns(
    columns: Dict[Subset, ColumnT], keep: "np.ndarray", subset: Subset
) -> ColumnT:
    column = columns[subset]
    mask = np.asarray(keep, dtype=bool)
    kept = mask.tolist()
    return type(column)(
        user_ids=[uid for uid, k in zip(column.user_ids, kept) if k],
        keys=np.ascontiguousarray(np.asarray(column.keys)[mask]),
        num_bits=np.ascontiguousarray(np.asarray(column.num_bits)[mask]),
        iterations=np.ascontiguousarray(np.asarray(column.iterations)[mask]),
    )


def split_columns_at(
    columns: Dict[Subset, ColumnT], boundary: str
) -> Tuple[Dict[Subset, ColumnT], Dict[Subset, ColumnT]]:
    """Carve columns into (``user < boundary``, ``user >= boundary``) halves.

    This is the live-rebalancing counterpart of
    :func:`split_columns_by_user_range`: instead of slicing a fresh
    store into N balanced ranges, it cuts an *existing* shard's columns
    at an arbitrary user-id boundary, so a donor shard can keep the left
    half and hand the right half to a recipient.  The boundary itself
    need not be a published user id — comparison is plain lexicographic
    ``<`` on the id strings, matching the sort order of
    :func:`user_universe`.

    Per-column publication order is preserved on both sides, so for each
    subset the left and right pieces concatenated (left first) and
    argsorted by original position reconstruct the donor column
    bit-for-bit; subsets with no publisher on a side are omitted there
    (stores never hold empty columns).
    """
    left: Dict[Subset, ColumnT] = {}
    right: Dict[Subset, ColumnT] = {}
    for subset, column in columns.items():
        count = len(column.user_ids)
        mask = np.fromiter(
            (uid < boundary for uid in column.user_ids), dtype=bool, count=count
        )
        if mask.any():
            left[subset] = _filter_columns(columns, mask, subset)
        if not mask.all():
            right[subset] = _filter_columns(columns, ~mask, subset)
    return left, right


def merge_columns(
    parts: List[Dict[Subset, ColumnT]]
) -> Dict[Subset, ColumnT]:
    """Concatenate per-subset column pieces from ``parts`` in part order.

    The inverse of carving: given the column dicts of range-disjoint
    shards listed in range order, the merged column for each subset is
    the pieces' arrays concatenated part by part.  Publication order
    within each piece is preserved, and a subset absent from every part
    stays absent.  Duplicate user ids across parts are rejected — parts
    must come from a genuine partition of the user universe.
    """
    merged: Dict[Subset, ColumnT] = {}
    for part in parts:
        for subset, column in part.items():
            if subset not in merged:
                merged[subset] = column
                continue
            base = merged[subset]
            overlap = set(base.user_ids) & set(column.user_ids)
            if overlap:
                sample = sorted(overlap)[:3]
                raise ValueError(
                    f"cannot merge columns for subset {subset}: user ids "
                    f"{sample} appear in more than one part"
                )
            merged[subset] = type(base)(
                user_ids=list(base.user_ids) + list(column.user_ids),
                keys=np.ascontiguousarray(
                    np.concatenate([np.asarray(base.keys), np.asarray(column.keys)])
                ),
                num_bits=np.ascontiguousarray(
                    np.concatenate(
                        [np.asarray(base.num_bits), np.asarray(column.num_bits)]
                    )
                ),
                iterations=np.ascontiguousarray(
                    np.concatenate(
                        [np.asarray(base.iterations), np.asarray(column.iterations)]
                    )
                ),
            )
    return merged


def split_columns_by_user_range(
    columns: Dict[Subset, ColumnT], n_shards: int
) -> List[Dict[Subset, ColumnT]]:
    """Split per-subset columns into ``n_shards`` contiguous user ranges.

    Properties (asserted by the hypothesis suite in
    ``tests/test_partition.py``):

    * shard universes are pairwise disjoint and jointly cover every user;
    * their concatenation in shard order *is* the sorted universe
      (contiguity);
    * within each shard, every column keeps its original publication
      order, so concatenating a subset's shard pieces and argsorting by
      original position reconstructs the original column exactly.

    A shard whose range contains no publisher of some subset simply
    omits that subset (stores never hold empty columns — see
    ``SketchStore.publish_column``).
    """
    universe = user_universe(columns)
    bounds = range_bounds(len(universe), n_shards)
    shards: List[Dict[Subset, ColumnT]] = []
    for lo, hi in bounds:
        members = set(universe[lo:hi])
        shard: Dict[Subset, ColumnT] = {}
        for subset, column in columns.items():
            count = len(column.user_ids)
            mask = np.fromiter(
                (uid in members for uid in column.user_ids), dtype=bool, count=count
            )
            if not mask.any():
                continue
            keep = mask.tolist()
            shard[subset] = type(column)(
                user_ids=[uid for uid, kept in zip(column.user_ids, keep) if kept],
                keys=np.ascontiguousarray(np.asarray(column.keys)[mask]),
                num_bits=np.ascontiguousarray(np.asarray(column.num_bits)[mask]),
                iterations=np.ascontiguousarray(np.asarray(column.iterations)[mask]),
            )
        shards.append(shard)
    return shards
