"""E6 — Lemma 4.1: conjunctive-query error scales as O(sqrt(log(1/δ)/M)).

Sweeps the user count, measures mean and 95th-percentile estimation error
over repeated trials, fits the power law, and compares against the
analytic Chernoff half-width.  Also ablates the estimator's count-zeros
trick (clamping), the E6b ablation listed by ``python -m repro experiments``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import error_quantile, fit_power_decay
from repro.data import bernoulli_panel
from repro.server import publish_database

from _harness import make_stack, write_table

SIZES = (250, 1000, 4000, 16000)
TRIALS = 6
SUBSET = (0, 1, 2)
VALUE = (1, 0, 1)


def run_sweep(clamp: bool):
    params, prf, _, estimator, rng = make_stack(0.25, seed=6, clamp=clamp)
    from repro.core import Sketcher

    rows = []
    errors_by_size = []
    for num_users in SIZES:
        estimates, truths = [], []
        for _ in range(TRIALS):
            db = bernoulli_panel(num_users, 3, density=0.5, rng=rng)
            sketcher = Sketcher(params, prf, sketch_bits=10, rng=rng)
            store = publish_database(db, sketcher, [SUBSET])
            estimate = estimator.estimate(store.sketches_for(SUBSET), VALUE)
            estimates.append(estimate.fraction)
            truths.append(db.exact_conjunction(SUBSET, VALUE))
        abs_errors = np.abs(np.array(estimates) - np.array(truths))
        mean_error = float(abs_errors.mean())
        errors_by_size.append(mean_error)
        rows.append(
            (
                num_users,
                f"{mean_error:.4f}",
                f"{error_quantile(estimates, truths, 0.95):.4f}",
                f"{estimator.half_width(num_users, delta=0.05):.4f}",
            )
        )
    return rows, errors_by_size


def test_e6_error_decay(benchmark):
    rows, errors = benchmark.pedantic(lambda: run_sweep(clamp=False), rounds=1, iterations=1)
    fit = fit_power_decay(SIZES, errors)
    write_table(
        "E6",
        "Lemma 4.1 — query error vs user count M (p = 0.25, width-3 query)",
        ["M", "mean |err|", "p95 |err|", "Lemma 4.1 half-width (d=.05)"],
        rows,
        notes=(
            f"Paper claim: error O(sqrt(log(1/delta)/M)) — exponent -0.5 in M.\n"
            f"Fitted power law: error ~ {fit.coefficient:.2f} * M^{fit.exponent:.3f} "
            f"(R^2 = {fit.r_squared:.3f}).\n"
            "Every mean error sits below the analytic half-width."
        ),
    )
    assert -0.8 < fit.exponent < -0.25
    for (num_users, mean_error, _, half_width) in rows:
        assert float(mean_error) <= float(half_width)


def test_e6b_clamping_ablation(benchmark):
    def both():
        raw_rows, raw_errors = run_sweep(clamp=False)
        clamped_rows, clamped_errors = run_sweep(clamp=True)
        return raw_errors, clamped_errors

    raw_errors, clamped_errors = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = [
        (m, f"{raw:.4f}", f"{cl:.4f}")
        for m, raw, cl in zip(SIZES, raw_errors, clamped_errors)
    ]
    write_table(
        "E6b",
        "Ablation — estimator clamping to [0,1] (mean |err|)",
        ["M", "raw (unbiased)", "clamped"],
        rows,
        notes=(
            "Clamping trades a small bias for never reporting impossible\n"
            "fractions; on rare-event queries it typically reduces error."
        ),
    )
