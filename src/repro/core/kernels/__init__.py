"""The kernel tier: CounterPRF's two bulk stages, compiled, with NumPy twins.

:class:`~repro.core.prf.CounterPRF`'s bulk entry points all reduce to two
shapes of work:

* **subkeys** — one keyed, personalised BLAKE2b digest per ``(id, B)``
  over the canonical ``id | B`` prefix, returned as two uint64 word
  columns (:func:`subkeys`);
* **threshold** — Philox4x64-10 expansion at zero-tail counters, a
  threshold compare, and an int8 bit out, driven over three layouts (a
  key run, a ``(users x blocks)`` lattice, per-user key rows).

This package serves both through one of two interchangeable tiers:

* **c** — the ``_ckernel`` extension (built by ``setup.py``): a portable
  RFC 7693 BLAKE2b and single fused Philox passes, all releasing the GIL
  for their whole duration, so concurrent queries dispatched to a thread
  pool genuinely run on multiple cores;
* **numpy** — ``hashlib.blake2b`` for the subkeys and the array-arithmetic
  path over :mod:`repro.core.philox` for the expansion, always available.

Selection order: the compiled tier is used when the extension imports
and the environment does not say otherwise; ``REPRO_KERNEL=numpy``
forces the fallback, ``REPRO_KERNEL=c`` makes a missing extension an
import-time error instead of a silent slowdown (``auto`` — or unset —
is the silent-fallback default).  :func:`select` re-points the tier at
runtime (the CLI's ``--kernel`` flag and the parity tests use it).

The two tiers are **bit-identical**: both implement the exact
Philox4x64-10 parameterisation pinned against ``numpy.random.Philox``,
the compiled subkeys are pinned against ``hashlib`` (differential and
known-answer tests), and the test suite asserts equality across every
``CounterPRF`` entry point.  Either tier may therefore be picked per
process, per run, or mid-session without touching any persisted artifact
— evaluation caches, stores and wire payloads never record which tier
produced them.

Thread-safety: every kernel function is a pure function of its inputs
into a freshly allocated output array — no shared scratch, no module
state mutated after import — so any number of threads may call either
tier concurrently.  (:func:`select` is the one mutator; it is meant for
start-up and tests, not for concurrent use mid-serving.)
"""

from __future__ import annotations

import hashlib
import os
from typing import Sequence, Tuple

import numpy as np

from ..philox import philox4x64_rows, philox4x64_zero_tail

__all__ = [
    "active",
    "available",
    "select",
    "subkeys",
    "threshold_keys",
    "threshold_block",
    "threshold_grid",
]

_REQUESTED = (os.environ.get("REPRO_KERNEL") or "auto").strip().lower() or "auto"
if _REQUESTED not in ("auto", "c", "numpy"):
    raise ValueError(
        f"REPRO_KERNEL must be 'auto', 'c' or 'numpy', got {_REQUESTED!r}"
    )

try:  # The extension is optional by contract; the NumPy twin is complete.
    from . import _ckernel  # type: ignore[attr-defined]
except ImportError:
    _ckernel = None
    if _REQUESTED == "c":
        raise ImportError(
            "REPRO_KERNEL=c but the compiled kernel extension is not built; "
            "run 'python setup.py build_ext --inplace' (or unset REPRO_KERNEL "
            "for the NumPy fallback)"
        ) from None

_active = "c" if (_ckernel is not None and _REQUESTED != "numpy") else "numpy"


def available() -> bool:
    """Whether the compiled extension imported in this process."""
    return _ckernel is not None


def active() -> str:
    """The tier currently serving kernel calls: ``"c"`` or ``"numpy"``."""
    return _active


def select(name: str) -> str:
    """Re-point the kernel tier; returns the tier actually active.

    ``"numpy"`` always succeeds; ``"c"`` raises ``RuntimeError`` when the
    extension is missing; ``"auto"`` picks the compiled tier iff built.
    """
    global _active
    if name not in ("auto", "c", "numpy"):
        raise ValueError(f"kernel tier must be 'auto', 'c' or 'numpy', got {name!r}")
    if name == "c" and _ckernel is None:
        raise RuntimeError(
            "compiled kernel extension is not built; run "
            "'python setup.py build_ext --inplace'"
        )
    _active = "numpy" if name == "numpy" or _ckernel is None else "c"
    return _active


# ----------------------------------------------------------------------
# NumPy twin — hashlib subkeys and the array-arithmetic Philox path.
# ----------------------------------------------------------------------
def _numpy_subkeys(
    key: bytes,
    person: bytes,
    user_ids: Sequence[str],
    subset_length: int,
    tail: bytes,
) -> Tuple[np.ndarray, np.ndarray]:
    copy = hashlib.blake2b(key=key, digest_size=16, person=person).copy
    length = int(subset_length).to_bytes(4, "big")
    buffer = bytearray()
    for user_id in user_ids:
        state = copy()
        state.update(
            len(user_id).to_bytes(4, "big") + length + user_id.encode("utf-8") + tail
        )
        buffer += state.digest()
    words = np.frombuffer(bytes(buffer), dtype="<u8").reshape(-1, 2)
    return np.ascontiguousarray(words[:, 0]), np.ascontiguousarray(words[:, 1])


def _numpy_threshold_keys(
    block: int, keys: np.ndarray, k0: int, k1: int, lane: int, threshold: int
) -> np.ndarray:
    words = philox4x64_zero_tail(
        np.full(keys.size, block, dtype=np.uint64),
        keys,
        np.uint64(k0),
        np.uint64(k1),
    )[lane]
    return (words < np.uint64(threshold)).astype(np.int8)


def _numpy_threshold_block(
    block_ids: np.ndarray,
    user_keys: np.ndarray,
    subkey0: np.ndarray,
    subkey1: np.ndarray,
    threshold: int,
) -> np.ndarray:
    words = philox4x64_rows(
        block_ids[None, :], user_keys[:, None], subkey0, subkey1
    )
    # Threshold-compare each output lane before assembling the value
    # lattice: the interleaved writes then move int8, not uint64.
    bound = np.uint64(threshold)
    lattice = np.empty((user_keys.size, block_ids.size, 4), dtype=np.int8)
    for lane, word in enumerate(words):
        lattice[:, :, lane] = word < bound
    return lattice.reshape(user_keys.size, block_ids.size * 4)


def _numpy_threshold_grid(
    vblocks: np.ndarray,
    lanes: np.ndarray,
    key_rows: np.ndarray,
    subkey0: np.ndarray,
    subkey1: np.ndarray,
    threshold: int,
) -> np.ndarray:
    words = philox4x64_rows(vblocks[:, None], key_rows, subkey0, subkey1)
    # Each user reads one fixed output lane; compare lane-wise first so
    # the gather moves int8.
    bound = np.uint64(threshold)
    num_users, num_keys = key_rows.shape
    lattice = np.empty((num_users, num_keys, 4), dtype=np.int8)
    for lane, word in enumerate(words):
        lattice[:, :, lane] = word < bound
    return np.take_along_axis(
        lattice, lanes.astype(np.int64)[:, None, None], axis=2
    )[:, :, 0]


# ----------------------------------------------------------------------
# Dispatching entry points
# ----------------------------------------------------------------------
def subkeys(
    key: bytes,
    person: bytes,
    user_ids: Sequence[str],
    subset_length: int,
    tail: bytes,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-user 128-bit subkeys as two ``(M,)`` uint64 word columns.

    Row ``m`` holds the little-endian words of the 16-byte BLAKE2b digest
    keyed by ``key`` and personalised by ``person`` over
    ``be32(len(id)) || be32(subset_length) || utf8(id) || tail`` — the
    canonical ``id | B`` prefix when ``tail`` is the subset blob.  Ids
    must be ``str``; one that UTF-8 cannot encode (a lone surrogate)
    raises ``UnicodeEncodeError`` under either tier.
    """
    if _active == "c":
        return _ckernel.subkeys(key, person, user_ids, int(subset_length), tail)
    return _numpy_subkeys(key, person, user_ids, subset_length, tail)


def threshold_keys(
    block: int, keys: np.ndarray, k0: int, k1: int, lane: int, threshold: int
) -> np.ndarray:
    """``(K,)`` int8 bits of Philox(block, key_k, subkey)[lane] < threshold."""
    if keys.size == 0:
        return np.zeros(0, dtype=np.int8)
    if _active == "c":
        return _ckernel.threshold_keys(
            int(block), keys, int(k0), int(k1), int(lane), int(threshold)
        )
    return _numpy_threshold_keys(block, keys, k0, k1, lane, threshold)


def threshold_block(
    block_ids: np.ndarray,
    user_keys: np.ndarray,
    subkey0: np.ndarray,
    subkey1: np.ndarray,
    threshold: int,
) -> np.ndarray:
    """``(M, 4B)`` flat lane-interleaved lattice of threshold bits.

    Column ``4b + lane`` holds Philox(block_ids[b], user_keys[m],
    subkey[m])[lane] < threshold — the layout
    :meth:`~repro.core.prf.CounterPRF.evaluate_block` gathers candidate
    columns from.
    """
    if _active == "c":
        return _ckernel.threshold_block(
            block_ids, user_keys, subkey0, subkey1, int(threshold)
        )
    return _numpy_threshold_block(block_ids, user_keys, subkey0, subkey1, threshold)


def threshold_grid(
    vblocks: np.ndarray,
    lanes: np.ndarray,
    key_rows: np.ndarray,
    subkey0: np.ndarray,
    subkey1: np.ndarray,
    threshold: int,
) -> np.ndarray:
    """``(U, K)`` int8 bits, one lane per user row (the grid axis)."""
    if _active == "c":
        return _ckernel.threshold_grid(
            vblocks,
            lanes.astype(np.uint8),
            np.ascontiguousarray(key_rows, dtype=np.uint64),
            subkey0,
            subkey1,
            int(threshold),
        )
    return _numpy_threshold_grid(
        vblocks, lanes, key_rows, subkey0, subkey1, threshold
    )
