"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one experiment from the index that
``python -m repro experiments`` prints: it
computes the measured quantities, prints a paper-claim vs measured table,
and persists the table under ``benchmarks/results/`` so the numbers survive
pytest's output capture.  The ``benchmark`` fixture times the experiment's
core operation so ``pytest benchmarks/ --benchmark-only`` doubles as a
performance harness.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
GLOBAL_KEY = b"benchmark-global-key-32-bytes-ok"


def make_stack(p: float, seed: int, sketch_bits: int = 10, clamp: bool = True):
    """Standard (params, prf, sketcher, estimator) stack for benchmarks."""
    params = PrivacyParams(p=p)
    prf = BiasedPRF(p=p, global_key=GLOBAL_KEY)
    rng = np.random.default_rng(seed)
    sketcher = Sketcher(params, prf, sketch_bits=sketch_bits, rng=rng)
    estimator = SketchEstimator(params, prf, clamp=clamp)
    return params, prf, sketcher, estimator, rng


def write_table(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Format, print and persist one experiment table."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def fmt(cells):
        return "  ".join(str(cell).rjust(width) for cell, width in zip(cells, widths))

    lines = [f"[{experiment}] {title}", fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    if notes:
        lines.append("")
        lines.append(notes)
    text = "\n".join(lines)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text
